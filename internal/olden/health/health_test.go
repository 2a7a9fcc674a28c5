package health

import (
	"testing"

	"ccl/internal/cache"
	"ccl/internal/ccmalloc"
	"ccl/internal/faults"
	"ccl/internal/olden"
	runctx "ccl/internal/sim"
)

func TestVillageCount(t *testing.T) {
	cases := []struct {
		levels int
		want   int64
	}{{1, 1}, {2, 5}, {3, 21}, {4, 85}}
	for _, c := range cases {
		if got := (Config{Levels: c.levels}).Villages(); got != c.want {
			t.Errorf("Villages(%d) = %d, want %d", c.levels, got, c.want)
		}
	}
}

func TestSimulationTreatsPatients(t *testing.T) {
	cfg := Config{Levels: 3, Steps: 80, MorphInterval: 0, Seed: 1}
	r := Run(olden.NewEnv(olden.Base, 16), cfg)
	treated := r.Check >> 32
	if treated == 0 {
		t.Fatal("no patients treated; simulation inert")
	}
	if r.Check&0xFFFFFFFF == 0 {
		t.Fatal("checksum accumulated nothing")
	}
}

func TestAllVariantsAgree(t *testing.T) {
	cfg := Config{Levels: 3, Steps: 60, MorphInterval: 12, Seed: 3}
	want := Run(olden.NewEnv(olden.Base, 16), cfg).Check
	for _, v := range []olden.Variant{olden.CCMallocFirstFit, olden.CCMallocClosest, olden.CCMallocNewBlock,
		olden.CCMorphCluster, olden.CCMorphClusterColor, olden.SWPrefetch, olden.CCMallocNullHint} {
		if got := Run(olden.NewEnv(v, 16), cfg).Check; got != want {
			t.Errorf("%s: checksum %d, want %d", v.Name(), got, want)
		}
	}
}

// TestSkippedMorphKeepsChecksum reaches health's degradation path: a
// periodic reorganization whose cluster placement is vetoed leaves
// that list in its old layout (ccmorph is copy-then-commit) and the
// simulation runs on with the same result. The vetoes are armed on
// the run context, as every fault sweep arms them.
func TestSkippedMorphKeepsChecksum(t *testing.T) {
	cfg := Config{Levels: 3, Steps: 60, MorphInterval: 12, Seed: 3}
	want := Run(olden.NewEnv(olden.Base, 16), cfg).Check
	in := faults.NewInjector()
	for n := int64(3); n <= 1<<14; n += 7 { // every 7th placement from the 3rd
		in.FailNth(faults.PlaceCluster, n)
	}
	s := runctx.New()
	in.ArmSim(s)
	if got := Run(olden.NewEnvIn(s, olden.CCMorphClusterColor, cache.ScaledRSIM(16)), cfg).Check; got != want {
		t.Fatalf("checksum %d with vetoed placements, want the base variant's %d", got, want)
	}
	if in.Fired(faults.PlaceCluster) == 0 {
		t.Fatal("no placement veto fired: the skipped-morph path was not reached")
	}
}

func TestMorePatientsWithMoreSteps(t *testing.T) {
	short := Run(olden.NewEnv(olden.Base, 16), Config{Levels: 3, Steps: 50, Seed: 2})
	long := Run(olden.NewEnv(olden.Base, 16), Config{Levels: 3, Steps: 150, Seed: 2})
	if long.Check>>32 <= short.Check>>32 {
		t.Fatal("longer simulation treated no more patients")
	}
}

func TestMorphIntervalZeroDisablesMorph(t *testing.T) {
	cfg := Config{Levels: 3, Steps: 50, MorphInterval: 0, Seed: 2}
	r := Run(olden.NewEnv(olden.CCMorphClusterColor, 16), cfg)
	base := Run(olden.NewEnv(olden.Base, 16), cfg)
	if r.Check != base.Check {
		t.Fatal("morph-disabled run diverged")
	}
	// Without morphing, the morph variant is just the base program.
	if r.HeapBytes != base.HeapBytes {
		t.Fatalf("no-morph heap %d != base heap %d", r.HeapBytes, base.HeapBytes)
	}
}

func TestHeapStableUnderChurn(t *testing.T) {
	// Steady-state patient churn must not grow the base heap without
	// bound: doubling the steps should grow the heap only modestly.
	a := Run(olden.NewEnv(olden.Base, 16), Config{Levels: 3, Steps: 150, Seed: 5})
	b := Run(olden.NewEnv(olden.Base, 16), Config{Levels: 3, Steps: 300, Seed: 5})
	if float64(b.HeapBytes) > 2.0*float64(a.HeapBytes) {
		t.Fatalf("heap doubled under steady churn: %d -> %d", a.HeapBytes, b.HeapBytes)
	}
}

func TestBadLevelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Levels=0 did not panic")
		}
	}()
	Run(olden.NewEnv(olden.Base, 16), Config{Levels: 0, Steps: 5})
}

func TestCcmallocUsesFigure4Hints(t *testing.T) {
	// The addList path must produce real co-locations — the paper's
	// Figure 4 in action: most hinted allocations land in the hint's
	// block or at least on its page.
	env := olden.NewEnv(olden.CCMallocClosest, 16)
	Run(env, Config{Levels: 3, Steps: 80, Seed: 1})
	cc := env.Alloc.(*ccmalloc.Allocator)
	s := cc.Stats()
	if s.HintedAllocs == 0 {
		t.Fatal("health issued no hinted allocations")
	}
	located := s.SameBlock + s.SamePage + s.OverflowPage
	if rate := float64(located) / float64(s.HintedAllocs); rate < 0.8 {
		t.Fatalf("only %.0f%% of hints honored near the hint", 100*rate)
	}
	if s.SameBlock == 0 {
		t.Fatal("no same-block co-locations at all")
	}
}
