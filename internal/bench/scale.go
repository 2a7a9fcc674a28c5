// scale.go is the one place a run's scale is decided. Every
// experiment reads its machine and its inputs from the rows below.
// Each row holds two values: the quick column, which ccbench runs by
// default and go test locks in the goldens, and the paper column,
// which ccbench -full runs.
//
// The paper column records what -full runs today. Three groups still
// run on a scaled machine there:
//   - RADIANCE, in fig6 and in metrics: §4.1's machine scaled 16×.
//   - ablate-block: §4.1's machine scaled 16×.
//   - every Olden job (fig7, table2, control, memovh, ablate-interval
//     and fieldprof's treeadd): Table 1's RSIM machine scaled 8×.
//
// The extensions keep one machine at both scales: multicore its
// topology, serving its 16× machine, oracle and replay their trace
// geometries.

package bench

import (
	"ccl/internal/apps/radiance"
	"ccl/internal/apps/vis"
	"ccl/internal/cache"
	"ccl/internal/olden/health"
	"ccl/internal/olden/mst"
	"ccl/internal/olden/perimeter"
	"ccl/internal/olden/treeadd"
)

// scaled is one row: a value at quick and at paper scale. Rows are
// shared by concurrent jobs and only read; a job that adjusts a row's
// value copies it first, including any slice inside it.
type scaled[C any] struct{ quick, paper C }

// at returns the value a quick or a full (paper-scale) run uses.
func (s scaled[C]) at(full bool) C {
	if full {
		return s.paper
	}
	return s.quick
}

// The machines: §4.1's E5000 (cache.PaperHierarchy) for the tree and
// application experiments, Table 1's RSIM (cache.RSIMHierarchy) for
// the Olden suite.
var (
	// treeMachine runs fig5, fig10, ablate-color, strategies and the
	// tree jobs of metrics and fieldprof.
	treeMachine = scaled[cache.Config]{cache.ScaledHierarchy(16), cache.PaperHierarchy()}
	// blockMachine is the machine whose L2 block size ablate-block
	// sweeps.
	blockMachine    = scaled[cache.Config]{cache.ScaledHierarchy(16), cache.ScaledHierarchy(16)}
	radianceMachine = scaled[cache.Config]{cache.ScaledHierarchy(16), cache.ScaledHierarchy(16)}
	visMachine      = scaled[cache.Config]{cache.PaperHierarchy(), cache.PaperHierarchy()}
	oldenMachine    = scaled[cache.Config]{cache.ScaledRSIM(8), cache.ScaledRSIM(8)}
	// servingMachine has a 64 KB direct-mapped last level with 64-byte
	// blocks.
	servingMachine = scaled[cache.Config]{cache.ScaledHierarchy(16), cache.ScaledHierarchy(16)}
)

// The application inputs: every job, label and sweep built from an
// application or an Olden benchmark reads its config here.
var (
	radianceConfig  = scaled[radiance.Config]{radiance.DefaultConfig(), radiance.PaperConfig()}
	visConfig       = scaled[vis.Config]{vis.DefaultConfig(), vis.PaperConfig()}
	treeaddConfig   = scaled[treeadd.Config]{treeadd.DefaultConfig(), treeadd.PaperConfig()}
	healthConfig    = scaled[health.Config]{health.DefaultConfig(), health.PaperConfig()}
	mstConfig       = scaled[mst.Config]{mst.DefaultConfig(), mst.PaperConfig()}
	perimeterConfig = scaled[perimeter.Config]{perimeter.DefaultConfig(), perimeter.PaperConfig()}
)

// The tree and extension inputs.
var (
	fig5Inputs = scaled[fig5Params]{
		fig5Params{nodes: 1<<17 - 1, checkpoints: []int{10, 100, 1000, 10000, 100000}},
		// The paper's 2,097,151 keys.
		fig5Params{nodes: 1<<21 - 1, checkpoints: []int{10, 100, 1000, 10000, 100000, 1000000}},
	}
	fig10Inputs = scaled[fig10Params]{
		fig10Params{sizes: []int64{1<<14 - 1, 1<<15 - 1, 1<<16 - 1, 1<<17 - 1}, searches: 20000},
		fig10Params{sizes: []int64{1<<18 - 1, 1<<19 - 1, 1<<20 - 1, 1<<21 - 1, 1<<22 - 1}, searches: 1000000},
	}
	// ablationInputs sizes ablate-color and ablate-block.
	ablationInputs = scaled[searchParams]{
		searchParams{keys: 1<<16 - 1, searches: 12000},
		searchParams{keys: 1<<20 - 1, searches: 200000},
	}
	// profiledTreeInputs sizes the tree jobs of metrics and fieldprof.
	profiledTreeInputs = scaled[searchParams]{
		searchParams{keys: 1<<15 - 1, searches: 20000},
		searchParams{keys: 1<<19 - 1, searches: 200000},
	}
	strategiesInputs = scaled[strategiesParams]{
		strategiesParams{sizes: []int64{1<<17 - 1, 1<<19 - 1}, searches: 20000, splitN: 1<<15 - 1},
		strategiesParams{sizes: []int64{1<<19 - 1, 1<<21 - 1}, searches: 100000, splitN: 1<<19 - 1},
	}
	multicoreInputs = scaled[multicoreParams]{
		multicoreParams{cores: 4, iters: 2000, kvOps: 2000, kvSlots: 1 << 10, kvKeys: 400, treeNodes: 1<<12 - 1, searches: 1000},
		multicoreParams{cores: 4, iters: 20000, kvOps: 20000, kvSlots: 1 << 13, kvKeys: 3000, treeNodes: 1<<15 - 1, searches: 5000},
	}
	servingInputs = scaled[servingParams]{
		servingParams{
			kvKeys: 4096, kvSlots: 4096, kvOps: 12000,
			lruKeys: 8192, lruCap: 1024, lruIdx: 4096, lruOps: 12000,
			pqFill: 4096, pqOps: 8000,
		},
		servingParams{
			kvKeys: 4096, kvSlots: 4096, kvOps: 48000,
			lruKeys: 8192, lruCap: 1024, lruIdx: 4096, lruOps: 48000,
			pqFill: 4096, pqOps: 32000,
		},
	}
	// oracleInputs' paper column is the acceptance gate's 24 × 50k =
	// 1.2M accesses.
	oracleInputs = scaled[oracleParams]{oracleParams{perGeom: 20_000, named: 25_000}, oracleParams{perGeom: 50_000, named: 100_000}}
	replayInputs = scaled[replayParams]{replayParams{perGeom: 20_000, geoms: 8}, replayParams{perGeom: 50_000, geoms: oracleGeometries}}
)
