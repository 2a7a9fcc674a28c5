package olden_test

import (
	"testing"

	"ccl/internal/cache"
	"ccl/internal/ccmalloc"
	"ccl/internal/faults"
	"ccl/internal/olden"
	"ccl/internal/olden/health"
	"ccl/internal/olden/mst"
	"ccl/internal/olden/perimeter"
	"ccl/internal/olden/treeadd"
	"ccl/internal/sim"
)

func TestVariantStrings(t *testing.T) {
	for _, v := range append(append([]olden.Variant{}, olden.Figure7Variants...), olden.CCMallocNullHint) {
		if v.String() == "" || v.Name() == "" {
			t.Errorf("variant %d has empty labels", int(v))
		}
	}
	if olden.Variant(99).String() == "" || olden.Variant(99).Name() == "" {
		t.Error("unknown variant should still format")
	}
	if olden.CCMorphClusterColor.String() != "Cl+Col" {
		t.Error("Figure 7 legend label wrong")
	}
}

func TestVariantDispatch(t *testing.T) {
	if s, ok := olden.CCMallocNewBlock.CCMallocStrategy(); !ok || s != ccmalloc.NewBlock {
		t.Error("NewBlock strategy mapping broken")
	}
	if _, ok := olden.Base.CCMallocStrategy(); ok {
		t.Error("Base should not use ccmalloc")
	}
	if olden.CCMallocNullHint.Hint(1234) != 0 {
		t.Error("null-hint control leaked a hint")
	}
	if olden.CCMallocNewBlock.Hint(1234) != 1234 {
		t.Error("hint suppressed for a hinted variant")
	}
	if f, ok := olden.CCMorphCluster.MorphColorFrac(); !ok || f != 0 {
		t.Error("cluster-only morph fraction wrong")
	}
	if f, ok := olden.CCMorphClusterColor.MorphColorFrac(); !ok || f <= 0 {
		t.Error("cluster+color morph fraction wrong")
	}
	if !olden.HWPrefetch.HW() || olden.HWPrefetch.SW() {
		t.Error("HW flags wrong")
	}
	if !olden.SWPrefetch.SW() || olden.SWPrefetch.HW() {
		t.Error("SW flags wrong")
	}
}

func TestNewEnvConfigures(t *testing.T) {
	e := olden.NewEnv(olden.HWPrefetch, 8)
	if !e.M.PointerPrefetch {
		t.Error("HWPrefetch env did not enable pointer prefetch")
	}
	if _, ok := e.Alloc.(*ccmalloc.Allocator); ok {
		t.Error("HWPrefetch env should use the baseline allocator")
	}
	e = olden.NewEnv(olden.CCMallocClosest, 8)
	cc, ok := e.Alloc.(*ccmalloc.Allocator)
	if !ok {
		t.Fatal("ccmalloc variant did not get a ccmalloc allocator")
	}
	if cc.Strategy() != ccmalloc.Closest {
		t.Error("wrong ccmalloc strategy")
	}
	// L1 scaling is capped; L2 scales fully.
	if got := e.M.Cache.Level(0).Size; got != 4<<10 {
		t.Errorf("scaled L1 = %d, want 4KB", got)
	}
	if got := e.M.Cache.Level(1).Size; got != 32<<10 {
		t.Errorf("scaled L2 = %d, want 32KB", got)
	}
}

// smallRunners run the four benchmarks at small configs, which keep
// the cross-variant sweeps fast.
var smallRunners = []func(olden.Env) olden.Result{
	func(e olden.Env) olden.Result { return treeadd.Run(e, treeadd.Config{Depth: 10, Repeats: 2}) },
	func(e olden.Env) olden.Result {
		return health.Run(e, health.Config{Levels: 3, Steps: 40, MorphInterval: 10, Seed: 1})
	},
	func(e olden.Env) olden.Result {
		return mst.Run(e, mst.Config{NumVert: 96, EdgesPer: 8, Buckets: 4, Seed: 3})
	},
	func(e olden.Env) olden.Result {
		return perimeter.Run(e, perimeter.Config{ImageSize: 128, Circles: 6, Repeats: 2, Seed: 5})
	},
}

func smallRuns(v olden.Variant) []olden.Result {
	rs := make([]olden.Result, len(smallRunners))
	for i, run := range smallRunners {
		rs[i] = run(olden.NewEnv(v, 16))
	}
	return rs
}

// TestChecksumsMatchAcrossVariants is the suite's core correctness
// property: placement is semantics-preserving, so every variant of
// every benchmark must compute the identical answer. Every run must
// also charge both busy and L1-hit cycles, which the Figure 7 table
// reports only as their sum.
func TestChecksumsMatchAcrossVariants(t *testing.T) {
	base := smallRuns(olden.Base)
	variants := append(append([]olden.Variant{}, olden.Figure7Variants...), olden.CCMallocNullHint)
	for _, v := range variants {
		for i, r := range smallRuns(v) {
			if r.Check != base[i].Check {
				t.Errorf("%s/%s: checksum %d != base %d", r.Benchmark, v.Name(), r.Check, base[i].Check)
			}
			if r.Benchmark != base[i].Benchmark {
				t.Errorf("benchmark order mismatch: %s vs %s", r.Benchmark, base[i].Benchmark)
			}
			if r.Stats.BusyCycles == 0 || r.Stats.L1HitCycles == 0 {
				t.Errorf("%s/%s: empty cycle breakdown %+v", r.Benchmark, v.Name(), r.Stats)
			}
		}
	}
}

// TestCCMallocVetoesDegrade vetoes every other cache-conscious
// placement on the run context, as the fault sweeps arm them: ccmalloc
// must degrade each vetoed hinted allocation to conventional placement
// (Stats.Degraded), never fail it, so every benchmark computes the
// base variant's answer under every strategy.
func TestCCMallocVetoesDegrade(t *testing.T) {
	const schedule = 1 << 13
	base := smallRuns(olden.Base)
	for _, v := range []olden.Variant{olden.CCMallocFirstFit, olden.CCMallocClosest, olden.CCMallocNewBlock} {
		for i, run := range smallRunners {
			in := faults.NewInjector()
			for n := int64(2); n <= schedule; n += 2 {
				in.FailNth(faults.PlaceCluster, n)
			}
			s := sim.New()
			in.ArmSim(s)
			env := olden.NewEnvIn(s, v, cache.ScaledRSIM(16))
			r := run(env)
			if r.Check != base[i].Check {
				t.Errorf("%s/%s: checksum %d under vetoes, want base %d", r.Benchmark, v.Name(), r.Check, base[i].Check)
			}
			if n := in.Count(faults.PlaceCluster); n > schedule {
				t.Fatalf("%s/%s: %d placements outran the %d-entry schedule", r.Benchmark, v.Name(), n, schedule)
			}
			st := env.Alloc.(*ccmalloc.Allocator).Stats()
			if st.Degraded == 0 || st.Degraded < in.Fired(faults.PlaceCluster) {
				t.Errorf("%s/%s: %d degraded allocations for %d vetoes", r.Benchmark, v.Name(), st.Degraded, in.Fired(faults.PlaceCluster))
			}
		}
	}
}
