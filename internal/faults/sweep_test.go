package faults

import (
	"errors"
	"fmt"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/ccmalloc"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/oracle"
	"ccl/internal/sim"
	"ccl/internal/trees"
)

// The fault-schedule sweep is the robustness acceptance test: every
// injection point, and the run's memory budget, against every
// ccmalloc strategy, under several deterministic schedules, must
// produce either a typed error or a degraded-but-correct completion —
// never a panic, never a corrupted structure. Every sweep builds its
// machine through a sim.Sim, armed with ArmSim as production arms it.
// Degraded runs additionally replay the access stream they issued
// through the differential oracle, proving the simulator stayed
// architecturally consistent through the failure.

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

// sweepMachine returns a machine owned by s that records the stream a
// run issues on it.
func sweepMachine(s *sim.Sim) (*machine.Machine, *machine.Recorder) {
	rec := machine.Record(s.NewMachine(cache.ScaledHierarchy(64)))
	return rec.Machine, rec
}

// lastLevelRegion returns a region on m's last-level cache, colored
// at frac (0: plain blocks).
func lastLevelRegion(t *testing.T, m *machine.Machine, frac float64) *layout.Region {
	t.Helper()
	region, err := layout.NewRegion(m.Arena, layout.FromLevel(m.Cache.LastLevel()), frac)
	if err != nil {
		t.Fatal(err)
	}
	return region
}

// armed returns a fresh run context armed with in.
func armed(in *Injector) *sim.Sim {
	s := sim.New()
	in.ArmSim(s)
	return s
}

// sweepArenaGrow exercises ccmalloc under scheduled arena-growth
// failures: allocations either degrade to conventional placement or
// fail typed, and surviving objects stay readable.
func sweepArenaGrow(t *testing.T, strat ccmalloc.Strategy, seed int64) {
	in := NewInjector()
	for i := int64(0); i < 3; i++ {
		in.FailNth(ArenaGrow, seed+i*2)
	}
	m, rec := sweepMachine(armed(in))

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

// sweepBudget builds a search tree on a Sim with a memory budget
// of seed pages. The 500-node build maps two pages, so the one-page
// budget runs out partway through it: the build either completes
// searchable or fails with the budget's typed error.
func sweepBudget(t *testing.T, strat ccmalloc.Strategy, seed int64) {
	s := sim.New()
	budget := sim.NewBudget(seed * memsys.DefaultPageSize)
	s.SetBudget(budget)
	m, rec := sweepMachine(s)

	tr, err := trees.Build(m, heap.New(m.Arena), 500, trees.RandomOrder, seed)
	if err != nil {
		if !errors.Is(err, cclerr.ErrBudgetExceeded) || !errors.Is(err, cclerr.ErrOutOfMemory) {
			t.Fatalf("budgeted build err = %v, want ErrBudgetExceeded and ErrOutOfMemory", err)
		}
		if cclerr.Class(err) == "" {
			t.Fatalf("Build returned an unclassified error: %v", err)
		}
		if budget.Used() == 0 {
			t.Fatal("the budget ran out before the build mapped anything")
		}
		return
	}
	if seed == 1 {
		t.Fatalf("a %d-byte budget covered the whole build: the sweep never reaches exhaustion", budget.Max())
	}
	if cerr := tr.CheckSearchable(); cerr != nil {
		t.Fatalf("budgeted build produced a broken tree: %v", cerr)
	}
	replayDiff(t, rec)
}

// sweepPlaceCluster morphs a tree into a region whose placements
// are vetoed on schedule: the morph either commits or aborts, and the
// tree is searchable either way (copy-then-commit).
func sweepPlaceCluster(t *testing.T, strat ccmalloc.Strategy, seed int64) {
	in := NewInjector().FailNth(PlaceCluster, 10*seed)
	m, rec := sweepMachine(armed(in))
	tr := trees.MustBuild(m, heap.New(m.Arena), 150, trees.RandomOrder, seed)

	st, merr := tr.MorphWith(lastLevelRegion(t, m, 0.5), ccmorph.SubtreeCluster, nil)
	if merr != nil {
		if !errors.Is(merr, cclerr.ErrPlacementFailed) {
			t.Fatalf("vetoed morph err = %v, want ErrPlacementFailed", merr)
		}
		checkTyped(t, "MorphWith", merr)
		if st.Aborted == 0 {
			t.Fatal("failed morph did not set Stats.Aborted")
		}
	}
	if in.Fired(PlaceCluster) == 0 {
		t.Fatal("no placement veto fired during the morph")
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

func TestFaultScheduleSweep(t *testing.T) {
	sweeps := []struct {
		name  string
		sweep func(*testing.T, ccmalloc.Strategy, int64)
	}{
		{string(ArenaGrow), sweepArenaGrow},
		{"alloc-budget", sweepBudget}, // the run's memory budget, not an injection point
		{string(PlaceCluster), sweepPlaceCluster},
	}
	for _, sw := range sweeps {
		for _, strat := range []ccmalloc.Strategy{ccmalloc.Closest, ccmalloc.FirstFit, ccmalloc.NewBlock} {
			for seed := int64(1); seed <= 3; seed++ {
				sw, strat, seed := sw, strat, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", sw.name, strat, seed), func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("fault sweep panicked: %v", r)
						}
					}()
					sw.sweep(t, strat, seed)
				})
			}
		}
	}
}

// FuzzFaultSchedule drives the whole placement stack under arbitrary
// fault schedules: any panic is a finding. Input bytes are consumed
// as (point, occurrence) pairs; an even point byte schedules an arena
// grow, an odd one a placement veto.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 1})             // fail the first arena grow
	f.Add([]byte{0, 2, 1, 3, 2, 1}) // mixed schedule across points
	f.Add([]byte{1, 1, 1, 2, 1, 3}) // placement vetoes only
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := NewInjector()
		for i := 0; i+1 < len(data); i += 2 {
			p := ArenaGrow
			if data[i]%2 == 1 {
				p = PlaceCluster
			}
			in.FailNth(p, int64(data[i+1]%32))
		}

		m := armed(in).NewMachine(cache.ScaledHierarchy(64))
		tr, err := trees.Build(m, heap.New(m.Arena), 60, trees.RandomOrder, 1)
		if err != nil {
			if cclerr.Class(err) == "" {
				t.Fatalf("Build: unclassified error %v", err)
			}
			return
		}
		region, perr := layout.NewRegion(m.Arena, layout.FromLevel(m.Cache.LastLevel()), 0)
		if perr != nil {
			if cclerr.Class(perr) == "" {
				t.Fatalf("NewRegion: unclassified error %v", perr)
			}
			return
		}
		if _, merr := tr.MorphWith(region, ccmorph.SubtreeCluster, nil); merr != nil && cclerr.Class(merr) == "" {
			t.Fatalf("MorphWith: unclassified error %v", merr)
		}
		if cerr := tr.CheckSearchable(); cerr != nil {
			t.Fatalf("tree unsearchable after faulted morph: %v", cerr)
		}
	})
}
