package faults

import (
	"errors"
	"fmt"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/ccmalloc"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/oracle"
	"ccl/internal/trace"
	"ccl/internal/trees"
)

// The fault-schedule sweep is the robustness acceptance test: every
// injection point, against every ccmalloc strategy, under several
// deterministic schedules, must produce either a typed error or a
// degraded-but-correct completion — never a panic, never a corrupted
// structure. Degraded runs additionally replay the access stream they
// issued through the differential oracle, proving the simulator
// stayed architecturally consistent through the failure.

// checkTyped fails the test when err carries no cclerr classification:
// the whole point of the taxonomy is that every failure an injected
// fault provokes is machine-classifiable.
func checkTyped(t *testing.T, op string, err error) {
	t.Helper()
	if cclerr.Class(err) == "" {
		t.Fatalf("%s returned an unclassified error: %v", op, err)
	}
	if !errors.Is(err, cclerr.ErrFaultInjected) {
		// Every error in this sweep traces back to the injector; a
		// non-fault error means a real bug surfaced under injection.
		t.Fatalf("%s failed with a non-injected error: %v", op, err)
	}
}

// replayDiff runs the differential oracle over the access stream the
// run issued. A degraded run that diverges from the naive reference
// simulator corrupted architectural state somewhere.
func replayDiff(t *testing.T, rec *machine.Recorder) {
	t.Helper()
	if len(rec.Trace().Records) == 0 {
		t.Fatal("run recorded no accesses")
	}
	if d := oracle.Diff(rec.Trace()); d != nil {
		t.Fatalf("degraded run diverged from the oracle: %v", d)
	}
}

// sweepMachine returns a machine that records the stream a run
// issues on it.
func sweepMachine() (*machine.Machine, *machine.Recorder) {
	rec := machine.Record(machine.NewScaled(64))
	return rec.Machine, rec
}

// sweepArenaGrow exercises ccmalloc under scheduled arena-growth
// failures: allocations either degrade to conventional placement or
// fail typed, and surviving objects stay readable.
func sweepArenaGrow(t *testing.T, strat ccmalloc.Strategy, seed int64) {
	m, rec := sweepMachine()
	in := NewInjector()
	for i := int64(0); i < 3; i++ {
		in.FailNth(ArenaGrow, seed+i*2)
	}
	in.ArmArena(m.Arena)

	cc, err := ccmalloc.New(m.Arena, layout.FromLevel(m.Cache.LastLevel()), strat, m.Cache)
	if err != nil {
		checkTyped(t, "ccmalloc.New", err)
		return
	}
	var live []memsys.Addr
	prev := memsys.NilAddr
	for i := 0; i < 300; i++ {
		p, aerr := cc.AllocHint(24, prev)
		if aerr != nil {
			checkTyped(t, "AllocHint", aerr)
			continue
		}
		m.Store32(p, uint32(i))
		live = append(live, p)
		prev = p
	}
	for i, p := range live {
		if got := m.Load32(p); int(got) >= 300 {
			t.Fatalf("object %d corrupted: %d", i, got)
		}
	}
	if in.Fired(ArenaGrow) > 0 && cc.Stats().Degraded == 0 && len(live) == 300 {
		// Faults fired yet nothing degraded and nothing failed: the
		// injection never reached an allocation path — the sweep is
		// not exercising what it claims to.
		t.Fatal("faults fired but neither degradation nor errors observed")
	}
	replayDiff(t, rec)
}

// sweepAllocBudget builds a search tree on a budgeted allocator: the
// build either completes searchable or fails typed.
func sweepAllocBudget(t *testing.T, strat ccmalloc.Strategy, seed int64) {
	m, rec := sweepMachine()
	in := NewInjector().FailNth(AllocBudget, 50*seed)
	budget := in.Budget(heap.New(m.Arena), 4096*seed)

	tr, err := trees.Build(m, budget, 150, trees.RandomOrder, seed)
	if err != nil {
		if !errors.Is(err, cclerr.ErrOutOfMemory) {
			t.Fatalf("budgeted build err = %v, want ErrOutOfMemory", err)
		}
		checkTyped(t, "Build", err)
		return
	}
	if cerr := tr.CheckSearchable(); cerr != nil {
		t.Fatalf("budgeted build produced a broken tree: %v", cerr)
	}
	replayDiff(t, rec)
}

// sweepPlaceCluster morphs a tree through a placer whose placements
// are vetoed on schedule: the morph either commits or aborts, and the
// tree is searchable either way (copy-then-commit).
func sweepPlaceCluster(t *testing.T, strat ccmalloc.Strategy, seed int64) {
	m, rec := sweepMachine()
	tr := trees.MustBuild(m, heap.New(m.Arena), 150, trees.RandomOrder, seed)

	placer, err := ccmorph.NewPlacer(m.Arena, ccmorph.Config{
		Geometry:  layout.FromLevel(m.Cache.LastLevel()),
		ColorFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector().FailNth(PlaceCluster, 10*seed)
	in.ArmPlacer(placer)

	st, merr := tr.MorphWith(placer, nil)
	if merr != nil {
		if !errors.Is(merr, cclerr.ErrPlacementFailed) {
			t.Fatalf("vetoed morph err = %v, want ErrPlacementFailed", merr)
		}
		checkTyped(t, "MorphWith", merr)
		if st.Aborted == 0 {
			t.Fatal("failed morph did not set Stats.Aborted")
		}
	}
	if cerr := tr.CheckSearchable(); cerr != nil {
		t.Fatalf("tree unsearchable after morph (aborted=%d): %v", st.Aborted, cerr)
	}
	for k := uint32(1); k <= 150; k++ {
		if !tr.Search(k) {
			t.Fatalf("key %d lost (aborted=%d)", k, st.Aborted)
		}
	}
	replayDiff(t, rec)
}

// sweepTraceRecord corrupts an encoded capture on schedule: Decode
// either rejects it typed, or — when the flipped byte still parses —
// the resulting trace must replay cleanly through the oracle.
func sweepTraceRecord(t *testing.T, strat ccmalloc.Strategy, seed int64) {
	src, ok := trace.FromBytes([]byte(fmt.Sprintf("sweep-trace-seed-%02d-%032d", seed, seed)))
	if !ok {
		t.Fatal("FromBytes rejected seed material")
	}
	in := NewInjector().FailNth(TraceRecord, seed).FailNth(TraceRecord, seed+3)
	bad := in.Corrupt(src.Encode())
	dec, err := trace.Decode(bad)
	if err != nil {
		if !errors.Is(err, cclerr.ErrCorruptTrace) {
			t.Fatalf("Decode err = %v, want ErrCorruptTrace", err)
		}
		return
	}
	if d := oracle.Diff(dec); d != nil {
		t.Fatalf("surviving corrupt trace diverged: %v", d)
	}
}

func TestFaultScheduleSweep(t *testing.T) {
	sweeps := map[Point]func(*testing.T, ccmalloc.Strategy, int64){
		ArenaGrow:    sweepArenaGrow,
		AllocBudget:  sweepAllocBudget,
		PlaceCluster: sweepPlaceCluster,
		TraceRecord:  sweepTraceRecord,
	}
	for _, pt := range Points() {
		sweep, ok := sweeps[pt]
		if !ok {
			t.Fatalf("injection point %s has no sweep; add one", pt)
		}
		for _, strat := range []ccmalloc.Strategy{ccmalloc.Closest, ccmalloc.FirstFit, ccmalloc.NewBlock} {
			for seed := int64(1); seed <= 3; seed++ {
				pt, strat, seed := pt, strat, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", pt, strat, seed), func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("fault sweep panicked: %v", r)
						}
					}()
					sweep(t, strat, seed)
				})
			}
		}
	}
}

// FuzzFaultSchedule drives the whole placement stack under arbitrary
// fault schedules: any panic is a finding. Input bytes are consumed
// as (point, occurrence) pairs.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 1})             // fail the first arena grow
	f.Add([]byte{0, 2, 1, 3, 2, 1}) // mixed schedule across points
	f.Add([]byte{3, 1, 3, 2, 3, 3}) // trace corruption only
	f.Add([]byte{1, 1, 1, 2, 1, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := NewInjector()
		for i := 0; i+1 < len(data); i += 2 {
			pts := Points()
			in.FailNth(pts[int(data[i])%len(pts)], int64(data[i+1]%32))
		}

		m := machine.NewScaled(64)
		in.ArmArena(m.Arena)
		budget := in.Budget(heap.New(m.Arena), 1<<16)

		tr, err := trees.Build(m, budget, 60, trees.RandomOrder, 1)
		if err != nil {
			if cclerr.Class(err) == "" {
				t.Fatalf("Build: unclassified error %v", err)
			}
			return
		}
		placer, perr := ccmorph.NewPlacer(m.Arena, ccmorph.Config{
			Geometry: layout.FromLevel(m.Cache.LastLevel()),
		})
		if perr != nil {
			if cclerr.Class(perr) == "" {
				t.Fatalf("NewPlacer: unclassified error %v", perr)
			}
			return
		}
		in.ArmPlacer(placer)
		if _, merr := tr.MorphWith(placer, nil); merr != nil && cclerr.Class(merr) == "" {
			t.Fatalf("MorphWith: unclassified error %v", merr)
		}
		if cerr := tr.CheckSearchable(); cerr != nil {
			t.Fatalf("tree unsearchable after faulted morph: %v", cerr)
		}

		if src, ok := trace.FromBytes(append([]byte("fuzz-fault-schedule-seed"), data...)); ok {
			if _, derr := trace.Decode(in.Corrupt(src.Encode())); derr != nil &&
				!errors.Is(derr, cclerr.ErrCorruptTrace) {
				t.Fatalf("Decode: unclassified error %v", derr)
			}
		}
	})
}
