package trace

import (
	"fmt"
	"reflect"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
)

// eventLog records every observer callback as a formatted line so two
// replays can be compared event-for-event, not just by final counters.
type eventLog struct {
	lines []string
}

func (e *eventLog) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	e.lines = append(e.lines, fmt.Sprintf("access %s %v hit=%d", kind, addr, hitLevel))
}

func (e *eventLog) OnEvict(level int, addr memsys.Addr, dirty bool) {
	e.lines = append(e.lines, fmt.Sprintf("evict L%d %v dirty=%v", level, addr, dirty))
}

func (e *eventLog) OnFill(level int, addr memsys.Addr, prefetch bool) {
	e.lines = append(e.lines, fmt.Sprintf("fill L%d %v pf=%v", level, addr, prefetch))
}

func (e *eventLog) OnInvalidate(addr memsys.Addr, span int64) {
	e.lines = append(e.lines, fmt.Sprintf("invalidate %v span=%d", addr, span))
}

// replayBoth runs the same trace batched (AccessTrace) and one record
// at a time (h.Access) and returns both hierarchies, both event logs,
// and both cycle totals.
func replayBoth(t *testing.T, tr Trace) (batched, serial *cache.Hierarchy, evB, evS *eventLog, cycB, cycS int64) {
	t.Helper()
	batched = cache.New(tr.Config)
	serial = cache.New(tr.Config)
	evB, evS = &eventLog{}, &eventLog{}
	batched.SetObserver(evB)
	serial.SetObserver(evS)
	cycB = AccessTrace(batched, tr.Records)
	for _, r := range tr.Records {
		cycS += serial.Access(r.Addr, r.Size, r.Kind.AccessKind())
	}
	return
}

// checkEquivalent asserts batched and per-record replay agree on
// cycles, final stats, and the full event stream.
func checkEquivalent(t *testing.T, tr Trace) {
	t.Helper()
	batched, serial, evB, evS, cycB, cycS := replayBoth(t, tr)
	if cycB != cycS {
		t.Fatalf("cycle totals diverge: batched %d, per-record %d", cycB, cycS)
	}
	if got, want := batched.Stats(), serial.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats diverge:\nbatched    %+v\nper-record %+v", got, want)
	}
	if !reflect.DeepEqual(evB.lines, evS.lines) {
		for i := range evB.lines {
			if i >= len(evS.lines) || evB.lines[i] != evS.lines[i] {
				t.Fatalf("event %d diverges: batched %q, per-record %q", i, evB.lines[i], evS.lines[i])
			}
		}
		t.Fatalf("event counts diverge: batched %d, per-record %d", len(evB.lines), len(evS.lines))
	}
}

func TestAccessTraceMatchesPerRecord(t *testing.T) {
	checkEquivalent(t, sampleTrace())
}

func TestAccessTraceEmpty(t *testing.T) {
	h := cache.New(sampleTrace().Config)
	if got := AccessTrace(h, nil); got != 0 {
		t.Fatalf("AccessTrace(nil) = %d cycles, want 0", got)
	}
	if acc := h.Stats().Levels[0].Accesses; acc != 0 {
		t.Fatalf("AccessTrace(nil) touched the hierarchy: %d accesses", acc)
	}
}

func TestReplayUsesTraceGeometry(t *testing.T) {
	tr := sampleTrace()
	h, cycles, err := Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Config(); !reflect.DeepEqual(got, tr.Config) {
		t.Fatalf("Replay built wrong geometry: %+v", got)
	}
	if cycles <= 0 {
		t.Fatalf("Replay charged %d cycles for %d records", cycles, len(tr.Records))
	}
	if err := tr.Config.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tr
	bad.Config.MemLatency = 0
	if _, _, err := Replay(bad); err == nil {
		t.Fatal("Replay accepted an invalid geometry")
	}
}

// FuzzBatchedAccess checks AccessTrace ≡ per-record Access on
// arbitrary decoded traces: same cycle total, same final stats, same
// observer event stream.
func FuzzBatchedAccess(f *testing.F) {
	f.Add(sampleTrace().Encode())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := FromBytes(data)
		if !ok {
			return
		}
		checkEquivalent(t, tr)
	})
}
