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
	if !olden.CCMallocClosest.UsesHints() {
		t.Error("closest should pass hints")
	}
	if olden.CCMallocNullHint.UsesHints() {
		t.Error("null-hint control must not pass hints")
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
// every benchmark must compute the identical answer.
func TestChecksumsMatchAcrossVariants(t *testing.T) {
	base := smallRuns(olden.Base)
	variants := append(append([]olden.Variant{}, olden.Figure7Variants[1:]...), olden.CCMallocNullHint)
	for _, v := range variants {
		for i, r := range smallRuns(v) {
			if r.Check != base[i].Check {
				t.Errorf("%s/%s: checksum %d != base %d", r.Benchmark, v.Name(), r.Check, base[i].Check)
			}
			if r.Benchmark != base[i].Benchmark {
				t.Errorf("benchmark order mismatch: %s vs %s", r.Benchmark, base[i].Benchmark)
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

// figure7 runs the full suite once at the harness scale and caches it
// for the shape tests.
var fig7 = map[string]map[olden.Variant]olden.Result{}

func runFig7(t *testing.T) map[string]map[olden.Variant]olden.Result {
	t.Helper()
	if len(fig7) > 0 {
		return fig7
	}
	variants := append(append([]olden.Variant{}, olden.Figure7Variants...), olden.CCMallocNullHint)
	for _, v := range variants {
		for _, r := range []olden.Result{
			treeadd.Run(olden.NewEnv(v, 8), treeadd.DefaultConfig()),
			health.Run(olden.NewEnv(v, 8), health.DefaultConfig()),
			mst.Run(olden.NewEnv(v, 8), mst.DefaultConfig()),
			perimeter.Run(olden.NewEnv(v, 8), perimeter.DefaultConfig()),
		} {
			if fig7[r.Benchmark] == nil {
				fig7[r.Benchmark] = map[olden.Variant]olden.Result{}
			}
			fig7[r.Benchmark][v] = r
		}
	}
	return fig7
}

func norm(t *testing.T, bench string, v olden.Variant) float64 {
	t.Helper()
	rs := runFig7(t)[bench]
	return rs[v].Normalized(rs[olden.Base])
}

// TestControlExperiment reproduces §4.4's control: replacing every
// ccmalloc hint with a null pointer makes programs slower than the
// base, by a modest margin (the paper measured 2-6%).
func TestControlExperiment(t *testing.T) {
	for _, b := range []string{"treeadd", "health", "mst", "perimeter"} {
		n := norm(t, b, olden.CCMallocNullHint)
		if n <= 100 {
			t.Errorf("%s: null-hint control at %.1f%% should be slower than base", b, n)
		}
		if n > 115 {
			t.Errorf("%s: null-hint control at %.1f%% is implausibly slow", b, n)
		}
	}
}

// TestFigure7Health: ccmalloc and ccmorph beat base; ccmorph beats
// both prefetching schemes (the paper's headline for health).
func TestFigure7Health(t *testing.T) {
	for _, v := range []olden.Variant{olden.CCMallocFirstFit, olden.CCMallocClosest, olden.CCMallocNewBlock, olden.CCMorphCluster, olden.CCMorphClusterColor} {
		if n := norm(t, "health", v); n >= 100 {
			t.Errorf("health/%s at %.1f%%: cache-conscious placement should beat base", v.Name(), n)
		}
	}
	mc := norm(t, "health", olden.CCMorphClusterColor)
	if sp := norm(t, "health", olden.SWPrefetch); mc >= sp {
		t.Errorf("health: ccmorph (%.1f%%) should outperform software prefetch (%.1f%%)", mc, sp)
	}
	if hp := norm(t, "health", olden.HWPrefetch); mc >= hp {
		t.Errorf("health: ccmorph (%.1f%%) should outperform hardware prefetch (%.1f%%)", mc, hp)
	}
}

// TestFigure7Mst: new-block beats the other strategies; ccmorph wins
// big; prefetching is nearly useless (the paper's mst story).
func TestFigure7Mst(t *testing.T) {
	na := norm(t, "mst", olden.CCMallocNewBlock)
	fa := norm(t, "mst", olden.CCMallocFirstFit)
	ca := norm(t, "mst", olden.CCMallocClosest)
	if na >= fa || na >= ca {
		t.Errorf("mst: new-block (%.1f%%) should beat first-fit (%.1f%%) and closest (%.1f%%)", na, fa, ca)
	}
	if na >= 90 {
		t.Errorf("mst: new-block at %.1f%% should clearly beat base", na)
	}
	if cl := norm(t, "mst", olden.CCMorphCluster); cl >= 70 {
		t.Errorf("mst: ccmorph clustering at %.1f%% should win big", cl)
	}
	for _, v := range []olden.Variant{olden.HWPrefetch, olden.SWPrefetch} {
		if n := norm(t, "mst", v); n < 85 {
			t.Errorf("mst: %s at %.1f%% — prefetching should be nearly useless on hash chains", v.Name(), n)
		}
		if cc := norm(t, "mst", olden.CCMallocNewBlock); cc >= norm(t, "mst", v) {
			t.Errorf("mst: ccmalloc should beat %s", v.Name())
		}
	}
}

// TestFigure7Treeadd: allocation order already matches traversal
// order, so gains are modest — but hinted allocation still beats base
// (density), and ccmorph lands within a few percent of base.
func TestFigure7Treeadd(t *testing.T) {
	if fa := norm(t, "treeadd", olden.CCMallocFirstFit); fa >= 100 || fa < 80 {
		t.Errorf("treeadd: first-fit at %.1f%%, want a modest (0-20%%) gain", fa)
	}
	if mc := norm(t, "treeadd", olden.CCMorphClusterColor); mc >= 100 {
		t.Errorf("treeadd: ccmorph at %.1f%% should not lose to base", mc)
	}
	// Prefetching is competitive here (the paper's observation).
	if sp := norm(t, "treeadd", olden.SWPrefetch); sp >= 100 {
		t.Errorf("treeadd: software prefetch at %.1f%% should help a streaming traversal", sp)
	}
}

// TestFigure7Perimeter: the quadtree is built in traversal order, so
// placement gains are small; hinted allocation edges out base while
// new-block pays its spreading cost.
func TestFigure7Perimeter(t *testing.T) {
	if fa := norm(t, "perimeter", olden.CCMallocFirstFit); fa >= 100 {
		t.Errorf("perimeter: first-fit at %.1f%% should edge out base", fa)
	}
	// ccmorph pays a one-time reorganization cost that the
	// depth-first-optimal base layout never lets it recoup under
	// serialized miss timing; it must stay within a modest envelope.
	if mc := norm(t, "perimeter", olden.CCMorphClusterColor); mc > 115 {
		t.Errorf("perimeter: ccmorph at %.1f%% outside the expected envelope", mc)
	}
}

// TestMemoryOverheads reproduces §4.4's accounting: ccmalloc's
// locality-for-memory trade shows up as extra heap versus base, and
// ccmorph's copies cost memory too.
func TestMemoryOverheads(t *testing.T) {
	rs := runFig7(t)
	// health churns allocations, so new-block's page spreading shows
	// up clearly against the base allocator. (mst's ccmalloc heap is
	// below base despite spreading: headerless packing more than
	// pays for the reserved blocks.)
	if na, base := rs["health"][olden.CCMallocNewBlock].HeapBytes, rs["health"][olden.Base].HeapBytes; na <= base {
		t.Errorf("health: new-block heap %d not above base %d", na, base)
	}
	// new-block never uses less memory than first-fit.
	for _, b := range []string{"treeadd", "health", "mst", "perimeter"} {
		na := rs[b][olden.CCMallocNewBlock].HeapBytes
		fa := rs[b][olden.CCMallocFirstFit].HeapBytes
		if na < fa {
			t.Errorf("%s: new-block heap %d below first-fit %d", b, na, fa)
		}
	}
	// At cache-block granularity, new-block's reservations cost real
	// space on the churning benchmarks (the paper's +7%/+30% story).
	for _, b := range []string{"health", "perimeter"} {
		envFA := olden.NewEnv(olden.CCMallocFirstFit, 8)
		envNA := olden.NewEnv(olden.CCMallocNewBlock, 8)
		switch b {
		case "health":
			health.Run(envFA, health.DefaultConfig())
			health.Run(envNA, health.DefaultConfig())
		case "perimeter":
			perimeter.Run(envFA, perimeter.DefaultConfig())
			perimeter.Run(envNA, perimeter.DefaultConfig())
		}
		fa := envFA.Alloc.(*ccmalloc.Allocator).BlocksUsed()
		na := envNA.Alloc.(*ccmalloc.Allocator).BlocksUsed()
		if na <= fa {
			t.Errorf("%s: new-block used %d blocks, first-fit %d; expected spreading overhead", b, na, fa)
		}
	}
}

// TestStatsBreakdownSane: the cycle components add up and no
// benchmark reports a zero breakdown.
func TestStatsBreakdownSane(t *testing.T) {
	rs := runFig7(t)
	for b, vs := range rs {
		for v, r := range vs {
			s := r.Stats
			total := s.BusyCycles + s.L1HitCycles + s.LoadStallCycles + s.StoreStall + s.PrefetchIssue
			if total != r.Cycles() {
				t.Errorf("%s/%s: breakdown sums to %d, want %d", b, v.Name(), total, r.Cycles())
			}
			if s.BusyCycles == 0 || s.L1HitCycles == 0 {
				t.Errorf("%s/%s: empty cycle breakdown", b, v.Name())
			}
		}
	}
}
