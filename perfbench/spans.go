package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the program's public entry points. Spans of one request, job
// or round share a Req id; Parent is the id of the span that caused
// this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. A disabled log
// records nothing, so untraced runs pay one branch per call site.
type spanLog struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, t0: time.Now()} }

// add records a finished span and returns its id (0 when disabled).
func (l *spanLog) add(name string, parent, req int64, start, end time.Time) int64 {
	if !l.on {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartUS: start.Sub(l.t0).Microseconds(),
		EndUS:   end.Sub(l.t0).Microseconds(),
	})
	return id
}

// reserve returns an id for a parent span whose end is not yet known;
// finish fills it in.
func (l *spanLog) reserve(name string, parent, req int64, start time.Time) int64 {
	return l.add(name, parent, req, start, start)
}

func (l *spanLog) finish(id int64, end time.Time) {
	if !l.on || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].EndUS = end.Sub(l.t0).Microseconds()
	l.mu.Unlock()
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	data, err := json.Marshal(map[string]any{"schema": "perfbench-spans/v1", "spans": l.spans})
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
