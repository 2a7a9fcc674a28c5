// Benchmarks regenerating each paper table/figure via `go test
// -bench=.`. One benchmark per experiment (plus substrate
// microbenchmarks); cmd/ccbench renders the full row/series output.
package ccl_test

import (
	"context"
	"math/rand"
	"testing"

	"ccl"
	"ccl/internal/apps/radiance"
	"ccl/internal/apps/vis"
	"ccl/internal/bench"
	"ccl/internal/olden"
	"ccl/internal/olden/health"
	"ccl/internal/olden/mst"
	"ccl/internal/olden/perimeter"
	"ccl/internal/olden/treeadd"
	"ccl/internal/sim"
)

// must adapts the facade's checked calls to benchmark code, which
// sizes every workload within the arena by construction (DESIGN.md
// §7): a failure here is a harness bug, so failing fast is correct.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// --- substrate microbenchmarks ---

func BenchmarkCacheAccess(b *testing.B) {
	m := ccl.NewScaledMachine(16)
	alloc := ccl.NewMalloc(m)
	p := must(alloc.Alloc(1 << 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LoadInt(p.Add(int64(i*8) % (1 << 16)))
	}
}

func BenchmarkMallocAllocFree(b *testing.B) {
	m := ccl.NewScaledMachine(16)
	alloc := ccl.NewMalloc(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := must(alloc.Alloc(24))
		alloc.Free(p)
	}
}

func BenchmarkCCMallocHinted(b *testing.B) {
	m := ccl.NewScaledMachine(16)
	alloc := must(ccl.NewCCMalloc(m, ccl.NewBlock))
	prev := must(alloc.Alloc(24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := must(alloc.AllocHint(24, prev))
		alloc.Free(prev)
		prev = p
	}
}

func BenchmarkCCMorphReorganize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := ccl.NewScaledMachine(32)
		t := must(ccl.BuildBST(m, ccl.NewMalloc(m), 1<<12-1, ccl.RandomOrder, 1))
		t.Morph(0.5, nil)
	}
}

// --- Figure 5: tree microbenchmark, one sub-benchmark per series ---

func fig5Search(b *testing.B, build func(m *ccl.Machine) func(uint32) bool) {
	const n = 1<<16 - 1
	m := ccl.NewScaledMachine(32)
	search := build(m)
	m.ResetStats() // exclude construction/reorganization cycles
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(uint32(rng.Int63n(n)) + 1)
	}
	b.ReportMetric(float64(m.Stats().TotalCycles())/float64(b.N), "cycles/search")
}

func BenchmarkFig5RandomTree(b *testing.B) {
	fig5Search(b, func(m *ccl.Machine) func(uint32) bool {
		return must(ccl.BuildBST(m, ccl.NewMalloc(m), 1<<16-1, ccl.RandomOrder, 11)).Search
	})
}

func BenchmarkFig5DepthFirstTree(b *testing.B) {
	fig5Search(b, func(m *ccl.Machine) func(uint32) bool {
		return must(ccl.BuildBST(m, ccl.NewMalloc(m), 1<<16-1, ccl.DepthFirstOrder, 11)).Search
	})
}

func BenchmarkFig5BTree(b *testing.B) {
	fig5Search(b, func(m *ccl.Machine) func(uint32) bool {
		t := must(ccl.NewBTree(m, 0.5))
		if err := t.BulkLoad(1<<16-1, 0.67); err != nil {
			panic(err)
		}
		return t.Search
	})
}

func BenchmarkFig5CTree(b *testing.B) {
	fig5Search(b, func(m *ccl.Machine) func(uint32) bool {
		t := must(ccl.BuildBST(m, ccl.NewMalloc(m), 1<<16-1, ccl.RandomOrder, 11))
		t.Morph(0.5, nil)
		return t.Search
	})
}

func BenchmarkFig5VEBTree(b *testing.B) {
	fig5Search(b, func(m *ccl.Machine) func(uint32) bool {
		t := must(ccl.BuildBST(m, ccl.NewMalloc(m), 1<<16-1, ccl.RandomOrder, 11))
		if _, err := t.MorphWith(must(ccl.NewRegion(m, 0.5)), ccl.VEB, nil); err != nil {
			panic(err)
		}
		return t.Search
	})
}

// BenchmarkSplitSearch runs the full profile -> plan -> split
// pipeline once, then measures steady-state searches on the hot SoA
// arrays — the strategies experiment's second contender on the
// zero-alloc search path.
func BenchmarkSplitSearch(b *testing.B) {
	fig5Search(b, func(m *ccl.Machine) func(uint32) bool {
		const n = 1<<16 - 1
		t := must(ccl.BuildBST(m, ccl.NewMalloc(m), n, ccl.RandomOrder, 11))
		prof := ccl.AttachProfiler(m, ccl.ProfileConfig{})
		t.RegisterNodes(prof.Regions(), "bst-nodes")
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 4000; i++ {
			t.Search(uint32(rng.Int63n(n)) + 1)
		}
		part := must(ccl.PlanBSTSplit(prof.Report(), "bst-nodes"))
		st := must2(t.Split(part, must(ccl.NewRegion(m, 0.5)), nil))
		m.Cache.SetObserver(nil) // measure the bare search path
		return st.Search
	})
}

// must2 is must for the (value, stats, error) triples the
// reorganizing transforms return.
func must2[T, S any](v T, _ S, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// --- Figure 6: macrobenchmarks ---

func BenchmarkFig6Radiance(b *testing.B) {
	cfg := radiance.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, mode := range []radiance.Mode{radiance.Base, radiance.ClusterColor} {
			r := radiance.Run(ccl.NewScaledMachine(16), mode, cfg)
			b.ReportMetric(float64(r.Cycles()), "cycles-"+mode.String())
		}
	}
}

func BenchmarkFig6VIS(b *testing.B) {
	cfg := vis.Config{Bits: 7, Evals: 800, Seed: 17}
	for i := 0; i < b.N; i++ {
		for _, mode := range []vis.Mode{vis.Base, vis.CCMalloc} {
			r := vis.Run(ccl.NewPaperMachine(), mode, cfg)
			b.ReportMetric(float64(r.Cycles()), "cycles-"+mode.String())
		}
	}
}

// --- Figure 7 / Table 2: Olden suite, one benchmark each ---

func oldenPair(b *testing.B, run func(env olden.Env) olden.Result) {
	for i := 0; i < b.N; i++ {
		base := run(olden.NewEnv(olden.Base, 8))
		cc := run(olden.NewEnv(olden.CCMallocNewBlock, 8))
		morph := run(olden.NewEnv(olden.CCMorphClusterColor, 8))
		b.ReportMetric(float64(base.Cycles()), "cycles-base")
		b.ReportMetric(100*float64(cc.Cycles())/float64(base.Cycles()), "norm-ccmalloc-%")
		b.ReportMetric(100*float64(morph.Cycles())/float64(base.Cycles()), "norm-ccmorph-%")
	}
}

func BenchmarkFig7Treeadd(b *testing.B) {
	cfg := treeadd.DefaultConfig()
	oldenPair(b, func(env olden.Env) olden.Result { return treeadd.Run(env, cfg) })
}

func BenchmarkFig7Health(b *testing.B) {
	cfg := health.DefaultConfig()
	oldenPair(b, func(env olden.Env) olden.Result { return health.Run(env, cfg) })
}

func BenchmarkFig7Mst(b *testing.B) {
	cfg := mst.DefaultConfig()
	oldenPair(b, func(env olden.Env) olden.Result { return mst.Run(env, cfg) })
}

func BenchmarkFig7Perimeter(b *testing.B) {
	cfg := perimeter.DefaultConfig()
	oldenPair(b, func(env olden.Env) olden.Result { return perimeter.Run(env, cfg) })
}

// --- Figure 10: model validation ---

// runExperiment runs a registered experiment's quick-scale jobs back
// to back, each in a fresh run context, and assembles its table: the
// work one pooled bench.Run does for the experiment, without the
// pool's goroutines and channels.
func runExperiment(b *testing.B, id string) bench.Table {
	sp, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	jobs := sp.Jobs(false)
	out := make([]any, len(jobs))
	for i, jb := range jobs {
		v, err := jb.Run(context.Background(), sim.New(), false)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = v
	}
	return sp.Assemble(false, out)
}

func BenchmarkFig10ModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(runExperiment(b, "fig10").Rows) == 0 {
			b.Fatal("fig10 produced no rows")
		}
	}
}

// --- Tables 1-3 (parameter/characteristics tables; cheap) ---

func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.Table1().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(runExperiment(b, "table2").Rows) != 4 {
			b.Fatal("table2 should have four rows")
		}
	}
}

func BenchmarkTable3Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.Table3().Rows) != 3 {
			b.Fatal("table3 should have three rows")
		}
	}
}

// --- §4.4 control and memory-overhead accounting ---

func BenchmarkControlNullHints(b *testing.B) {
	cfg := mst.Config{NumVert: 160, EdgesPer: 10, Buckets: 4, Seed: 3}
	for i := 0; i < b.N; i++ {
		base := mst.Run(olden.NewEnv(olden.Base, 8), cfg)
		null := mst.Run(olden.NewEnv(olden.CCMallocNullHint, 8), cfg)
		b.ReportMetric(100*float64(null.Cycles())/float64(base.Cycles())-100, "slowdown-%")
	}
}

func BenchmarkMemoryOverhead(b *testing.B) {
	cfg := health.Config{Levels: 3, Steps: 60, MorphInterval: 0, Seed: 1}
	for i := 0; i < b.N; i++ {
		fa := olden.NewEnv(olden.CCMallocFirstFit, 8)
		health.Run(fa, cfg)
		na := olden.NewEnv(olden.CCMallocNewBlock, 8)
		health.Run(na, cfg)
		faBlocks := fa.Alloc.(*ccl.CCMalloc).BlocksUsed()
		naBlocks := na.Alloc.(*ccl.CCMalloc).BlocksUsed()
		b.ReportMetric(100*float64(naBlocks)/float64(faBlocks)-100, "newblock-extra-blocks-%")
	}
}
