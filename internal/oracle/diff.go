package oracle

import (
	"fmt"
	"strings"

	"ccl/internal/cache"
	"ccl/internal/memsys"
	"ccl/internal/trace"
)

// Recorder captures the production simulator's observer callbacks as
// comparable Events. It implements cache.Observer.
type Recorder struct {
	Events []Event
}

// OnAccess implements cache.Observer.
func (r *Recorder) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	r.Events = append(r.Events, Event{
		Kind:  EvAccess,
		Level: hitLevel,
		Addr:  addr,
		Store: kind == cache.Store,
	})
}

// OnEvict implements cache.Observer.
func (r *Recorder) OnEvict(level int, addr memsys.Addr, dirty bool) {
	r.Events = append(r.Events, Event{Kind: EvEvict, Level: level, Addr: addr, Dirty: dirty})
}

// OnFill implements cache.Observer.
func (r *Recorder) OnFill(level int, addr memsys.Addr, prefetch bool) {
	r.Events = append(r.Events, Event{Kind: EvFill, Level: level, Addr: addr, Prefetch: prefetch})
}

// OnInvalidate implements cache.Observer. Diff replays single-core
// traces, which never invalidate, so it records nothing.
func (r *Recorder) OnInvalidate(memsys.Addr, int64) {}

// Reset clears the captured events without releasing the buffer.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// Divergence describes the first point where the production simulator
// and the oracle disagreed while replaying a trace. Index is -1 when
// the disagreement is only visible in the cumulative counters (which
// cannot happen if per-access events match, but is checked anyway —
// counters and events are updated by separate code paths).
type Divergence struct {
	Index  int          // record index, or -1 for a counters-only mismatch
	Record trace.Record // the diverging record (zero when Index == -1)
	Detail string
}

// Error implements error so a Divergence can flow through error paths.
func (d *Divergence) Error() string { return d.String() }

// String renders the divergence for test failure output.
func (d *Divergence) String() string {
	if d.Index < 0 {
		return "counter divergence after replay: " + d.Detail
	}
	return fmt.Sprintf("divergence at record %d (%v): %s", d.Index, d.Record, d.Detail)
}

// Diff replays the trace through a fresh production hierarchy and a
// fresh oracle, comparing the event stream of every access and the
// cumulative architectural counters afterwards. It returns nil when
// the simulators agree, else the first divergence.
func Diff(tr trace.Trace) *Divergence {
	h := cache.New(tr.Config)
	rec := &Recorder{}
	h.SetObserver(rec)
	o := New(tr.Config)

	for i, r := range tr.Records {
		rec.Reset()
		h.Access(r.Addr, r.Size, r.Kind.AccessKind())
		want := o.Access(r.Addr, r.Size, r.Kind.AccessKind())
		if d := compareEvents(rec.Events, want); d != "" {
			return &Divergence{Index: i, Record: r, Detail: d}
		}
	}

	real := h.Stats().Levels
	want := o.Stats()
	for i := range want {
		got := LevelStats{
			Accesses:   real[i].Accesses,
			Hits:       real[i].Hits,
			Misses:     real[i].Misses,
			Evictions:  real[i].Evictions,
			Writebacks: real[i].Writebacks,
		}
		if got != want[i] {
			return &Divergence{
				Index:  -1,
				Detail: fmt.Sprintf("L%d counters: sim %+v, oracle %+v", i+1, got, want[i]),
			}
		}
	}
	return nil
}

// compareEvents diffs one access's event streams, returning "" on
// agreement or a description of the first mismatch.
func compareEvents(got, want []Event) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("event %d: sim %v, oracle %v\n%s", i, got[i], want[i], sideBySide(got, want))
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("sim emitted %d events, oracle %d\n%s", len(got), len(want), sideBySide(got, want))
	}
	return ""
}

// sideBySide renders both event streams for failure output.
func sideBySide(got, want []Event) string {
	var b strings.Builder
	b.WriteString("sim:")
	for _, e := range got {
		fmt.Fprintf(&b, "\n  %v", e)
	}
	b.WriteString("\noracle:")
	for _, e := range want {
		fmt.Fprintf(&b, "\n  %v", e)
	}
	return b.String()
}

// DiffBytes derives a trace from raw fuzz input and diffs it. It
// reports nil for inputs too short to name a geometry, so fuzz targets
// can call it directly.
func DiffBytes(data []byte) *Divergence {
	tr, ok := trace.FromBytes(data)
	if !ok {
		return nil
	}
	return Diff(tr)
}
