package bench

import (
	"context"
	"fmt"
	"math/rand"

	"ccl/internal/apps/radiance"
	"ccl/internal/apps/vis"
	"ccl/internal/cache"
	"ccl/internal/ccmalloc"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/model"
	"ccl/internal/olden"
	"ccl/internal/olden/health"
	"ccl/internal/olden/mst"
	"ccl/internal/olden/perimeter"
	"ccl/internal/olden/treeadd"
	"ccl/internal/sim"
	"ccl/internal/trees"
)

// Table1 reports the RSIM simulation parameters (paper Table 1).
func Table1() Table {
	cfg := cache.RSIMHierarchy()
	rows := [][]string{
		{"Issue model", "in-order cost model (stand-in for 4-wide OOO)"},
		{"L1 data cache", fmt.Sprintf("%s, direct-mapped, write-through", kb(cfg.Levels[0].Size))},
		{"L2 cache", fmt.Sprintf("%s, %d-way set associative, write-back", kb(cfg.Levels[1].Size), cfg.Levels[1].Assoc)},
		{"Cache line size", fmt.Sprintf("%d bytes", cfg.Levels[1].BlockSize)},
		{"L1 hit", fmt.Sprintf("%d cycle", cfg.Levels[0].Latency)},
		{"L1 miss (L2 hit)", fmt.Sprintf("%d cycles", cfg.Levels[0].Latency+cfg.Levels[1].Latency)},
		{"L2 miss", fmt.Sprintf("+%d cycles", cfg.MemLatency)},
		{"SW prefetch issue", "1 cycle, fills overlap with work"},
		{"HW prefetch", "pointer values in flight, ROB-capped lead"},
	}
	return Table{
		ID:     "table1",
		Title:  "Simulation parameters (cf. paper Table 1)",
		Header: []string{"Parameter", "Value"},
		Rows:   rows,
		Notes:  []string{"RSIM's OOO pipeline is replaced by a cycle cost model; see DESIGN.md."},
	}
}

func table1Spec() Spec {
	return singleTableSpec("table1", "RSIM simulation parameters (paper Table 1)",
		func(context.Context, *sim.Sim, bool) Table { return Table1() })
}

// fig5Config bundles one microbenchmark series.
type fig5Config struct {
	name  string
	build func(m *machine.Machine, n int64) func(uint32) bool
}

// fig5Configs lists the four tree configurations of Figure 5.
func fig5Configs() []fig5Config {
	return []fig5Config{
		{"random-clustered binary tree", func(m *machine.Machine, n int64) func(uint32) bool {
			t := trees.MustBuild(m, heap.New(m.Arena), n, trees.RandomOrder, 11)
			return t.Search
		}},
		{"depth-first clustered binary tree", func(m *machine.Machine, n int64) func(uint32) bool {
			t := trees.MustBuild(m, heap.New(m.Arena), n, trees.DepthFirstOrder, 11)
			return t.Search
		}},
		{"in-core B-tree (colored)", func(m *machine.Machine, n int64) func(uint32) bool {
			t := must(trees.NewBTree(m, 0.5))
			check(t.BulkLoad(n, 0.67))
			return t.Search
		}},
		{"transparent C-tree", func(m *machine.Machine, n int64) func(uint32) bool {
			t := trees.MustBuild(m, heap.New(m.Arena), n, trees.RandomOrder, 11)
			_, err := t.Morph(0.5, nil)
			check(err)
			return t.Search
		}},
	}
}

// fig5Params sizes Fig5's trees (fig5Inputs): the key count and the
// search counts the table reports the running average at.
type fig5Params struct {
	nodes       int64
	checkpoints []int
}

// fig5Row measures one tree configuration: average search cycles per
// lookup at each checkpoint, on a machine private to this job.
func fig5Row(m *machine.Machine, cfg fig5Config, p fig5Params) []string {
	search := cfg.build(m, p.nodes)
	m.Cache.Flush()
	m.ResetStats()
	rng := rand.New(rand.NewSource(5))
	row := []string{cfg.name}
	done := 0
	for _, c := range p.checkpoints {
		for ; done < c; done++ {
			search(uint32(rng.Int63n(p.nodes)) + 1)
		}
		row = append(row, f1(float64(m.Stats().TotalCycles())/float64(done)))
	}
	return row
}

// fig5Spec regenerates the tree microbenchmark (paper Figure 5) as
// one job per tree configuration.
func fig5Spec() Spec {
	return Spec{
		ID:   "fig5",
		Desc: "tree microbenchmark: avg cycles/search for four layouts (paper Fig. 5)",
		Jobs: func(full bool) []Job {
			mcfg, p := treeMachine.at(full), fig5Inputs.at(full)
			var js []Job
			for _, cfg := range fig5Configs() {
				cfg := cfg
				js = append(js, Job{
					Name: "fig5/" + cfg.name,
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						return fig5Row(s.NewMachine(mcfg), cfg, p), nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			p := fig5Inputs.at(full)
			tab := Table{
				ID:     "fig5",
				Title:  fmt.Sprintf("Binary tree microbenchmark, %d keys (avg cycles/search)", p.nodes),
				Header: []string{"Configuration"},
			}
			for _, c := range p.checkpoints {
				tab.Header = append(tab.Header, fmt.Sprintf("%d", c))
			}
			for _, v := range out {
				if row, ok := v.([]string); ok {
					tab.Rows = append(tab.Rows, row)
				}
			}
			tab.Notes = append(tab.Notes,
				"paper: C-tree beats random by 4-5x, depth-first by 2.5-3x, B-tree by ~1.5x at 1M searches")
			return tab
		},
	}
}

// fig6Spec regenerates the macrobenchmark comparison (paper Figure
// 6) as one job per application mode; normalization to each
// application's base happens at assembly.
func fig6Spec() Spec {
	radModes := []radiance.Mode{radiance.Base, radiance.Cluster, radiance.ClusterColor}
	visModes := []vis.Mode{vis.Base, vis.CCMalloc}
	return Spec{
		ID:   "fig6",
		Desc: "RADIANCE and VIS macrobenchmarks, normalized time (paper Fig. 6)",
		Jobs: func(full bool) []Job {
			var js []Job
			for _, mode := range radModes {
				mode := mode
				js = append(js, Job{
					Name: "fig6/radiance-" + mode.String(),
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						m := s.NewMachine(radianceMachine.at(full))
						return radiance.Run(m, mode, radianceConfig.at(full)).Cycles(), nil
					},
				})
			}
			for _, mode := range visModes {
				mode := mode
				js = append(js, Job{
					Name: "fig6/vis-" + mode.String(),
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						m := s.NewMachine(visMachine.at(full))
						return vis.Run(m, mode, visConfig.at(full)).Cycles(), nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "fig6",
				Title:  "RADIANCE and VIS applications (normalized execution time)",
				Header: []string{"Application / configuration", "cycles", "normalized"},
			}
			app := func(prefix string, labels []string, vals []any) {
				base, ok := vals[0].(int64) // mode order puts base first
				if !ok {
					return // no baseline to normalize against
				}
				for i, v := range vals {
					c, ok := v.(int64)
					if !ok {
						continue
					}
					tab.Rows = append(tab.Rows, []string{
						prefix + " " + labels[i],
						fmt.Sprintf("%d", c),
						pct(100 * float64(c) / float64(base)),
					})
				}
			}
			radLabels := make([]string, len(radModes))
			for i, m := range radModes {
				radLabels[i] = m.String()
			}
			visLabels := make([]string, len(visModes))
			for i, m := range visModes {
				visLabels[i] = m.String()
			}
			app("RADIANCE", radLabels, out[:len(radModes)])
			app("VIS", visLabels, out[len(radModes):])
			tab.Notes = append(tab.Notes,
				"paper: RADIANCE 42% speedup (70.4% normalized), VIS 27% speedup (78.7% normalized)")
			return tab
		},
	}
}

// oldenBench is one Olden benchmark's row: its name, Table 2's
// description and main structure, and for a quick or a full run the
// Input label of its config and the run itself. The label and the run
// read the same config, so Table 2 names the input that ran.
type oldenBench struct {
	name, desc, structure string
	input                 func(full bool) string
	run                   func(env olden.Env, full bool) olden.Result
}

// oldenBenches lists the Figure 7 benchmarks in paper order.
var oldenBenches = []oldenBench{
	{"treeadd", "Sums the values stored in tree nodes", "binary tree",
		func(full bool) string { return fmt.Sprintf("%d nodes", treeaddConfig.at(full).Nodes()) },
		func(env olden.Env, full bool) olden.Result { return treeadd.Run(env, treeaddConfig.at(full)) }},
	{"health", "Simulation of Columbian health care system", "doubly linked lists",
		func(full bool) string {
			c := healthConfig.at(full)
			return fmt.Sprintf("%d villages, %d steps", c.Villages(), c.Steps)
		},
		func(env olden.Env, full bool) olden.Result { return health.Run(env, healthConfig.at(full)) }},
	{"mst", "Computes minimum spanning tree of a graph", "array of singly linked lists",
		func(full bool) string { return fmt.Sprintf("%d nodes", mstConfig.at(full).NumVert) },
		func(env olden.Env, full bool) olden.Result { return mst.Run(env, mstConfig.at(full)) }},
	{"perimeter", "Computes perimeter of regions in images", "quadtree",
		func(full bool) string {
			n := perimeterConfig.at(full).ImageSize
			return fmt.Sprintf("%dx%d image", n, n)
		},
		func(env olden.Env, full bool) olden.Result { return perimeter.Run(env, perimeterConfig.at(full)) }},
}

// oldenJob wraps one benchmark/variant cell as a pool job returning
// olden.Result.
func oldenJob(name string, b oldenBench, v olden.Variant) Job {
	return Job{Name: name, Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
		return b.run(olden.NewEnvIn(s, v, oldenMachine.at(full)), full), nil
	}}
}

// table2Spec regenerates the benchmark characteristics (paper Table
// 2) as one base-run job per benchmark, with the memory-allocated
// column measured from those runs.
func table2Spec() Spec {
	return Spec{
		ID:   "table2",
		Desc: "Olden benchmark characteristics (paper Table 2)",
		Jobs: func(full bool) []Job {
			var js []Job
			for _, b := range oldenBenches {
				js = append(js, oldenJob("table2/"+b.name, b, olden.Base))
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "table2",
				Title:  "Benchmark characteristics (cf. paper Table 2)",
				Header: []string{"Name", "Description", "Main structure", "Input", "Memory"},
			}
			for i, b := range oldenBenches {
				r, ok := out[i].(olden.Result)
				if !ok {
					continue
				}
				tab.Rows = append(tab.Rows, []string{b.name, b.desc, b.structure, b.input(full), kb(r.HeapBytes)})
			}
			return tab
		},
	}
}

// fig7Spec regenerates the Olden comparison (paper Figure 7) as one
// job per benchmark/scheme cell — 32 independent simulations.
func fig7Spec() Spec {
	return Spec{
		ID:   "fig7",
		Desc: "Olden suite under eight placement schemes, cycle breakdown (paper Fig. 7)",
		Jobs: func(full bool) []Job {
			var js []Job
			for _, b := range oldenBenches {
				for _, v := range olden.Figure7Variants {
					js = append(js, oldenJob("fig7/"+b.name+"/"+v.String(), b, v))
				}
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "fig7",
				Title:  "Cache-conscious data placement on Olden (normalized cycles)",
				Header: []string{"Benchmark", "Scheme", "norm", "busy", "load stall", "store stall", "heap"},
			}
			k := 0
			for _, b := range oldenBenches {
				base, haveBase := out[k].(olden.Result) // Figure7Variants[0] is Base
				for i, v := range olden.Figure7Variants {
					r, ok := out[k+i].(olden.Result)
					if !ok || !haveBase {
						continue
					}
					tot := float64(base.Cycles())
					s := r.Stats
					tab.Rows = append(tab.Rows, []string{
						b.name, v.String(),
						pct(100 * float64(r.Cycles()) / tot),
						pct(100 * float64(s.BusyCycles+s.L1HitCycles+s.PrefetchIssue) / tot),
						pct(100 * float64(s.LoadStallCycles) / tot),
						pct(100 * float64(s.StoreStall) / tot),
						kb(r.HeapBytes),
					})
				}
				k += len(olden.Figure7Variants)
			}
			tab.Notes = append(tab.Notes,
				"B=base HP=hw-prefetch SP=sw-prefetch FA/CA/NA=ccmalloc first-fit/closest/new-block Cl(+Col)=ccmorph",
				"components are normalized to each benchmark's base total, as in the paper's stacked bars")
			return tab
		},
	}
}

// Table3 reproduces the qualitative technique summary (paper Table 3).
func Table3() Table {
	return Table{
		ID:     "table3",
		Title:  "Summary of cache-conscious data placement techniques (paper Table 3)",
		Header: []string{"Technique", "Structures", "Prog. knowledge", "Arch. knowledge", "Code change", "Performance"},
		Rows: [][]string{
			{"CC design", "universal", "high", "high", "large", "high"},
			{"ccmorph", "tree-like", "moderate", "low", "small", "moderate-high"},
			{"ccmalloc", "universal", "low", "none", "small", "moderate-high"},
		},
	}
}

func table3Spec() Spec {
	return singleTableSpec("table3", "qualitative technique trade-off summary (paper Table 3)",
		func(context.Context, *sim.Sim, bool) Table { return Table3() })
}

// controlSpec regenerates the §4.4 control experiment (ccmalloc with
// all hints replaced by null pointers versus the base allocator) as a
// base job and a null-hint job per benchmark.
func controlSpec() Spec {
	return Spec{
		ID:   "control",
		Desc: "ccmalloc null-hint control experiment (§4.4)",
		Jobs: func(full bool) []Job {
			var js []Job
			for _, b := range oldenBenches {
				js = append(js,
					oldenJob("control/"+b.name+"/base", b, olden.Base),
					oldenJob("control/"+b.name+"/null-hint", b, olden.CCMallocNullHint))
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "control",
				Title:  "Null-hint control experiment (ccmalloc, all hints nil)",
				Header: []string{"Benchmark", "base cycles", "null-hint cycles", "slowdown"},
			}
			for i, b := range oldenBenches {
				base, ok1 := out[2*i].(olden.Result)
				null, ok2 := out[2*i+1].(olden.Result)
				if !ok1 || !ok2 {
					continue
				}
				tab.Rows = append(tab.Rows, []string{
					b.name,
					fmt.Sprintf("%d", base.Cycles()),
					fmt.Sprintf("%d", null.Cycles()),
					pct(100*float64(null.Cycles())/float64(base.Cycles()) - 100),
				})
			}
			tab.Notes = append(tab.Notes, "paper: 2-6% worse than the base versions that use system malloc")
			return tab
		},
	}
}

// footprint is one memovh cell: heap bytes plus the ccmalloc
// cache-block reservation count (zero for the base allocator).
type footprint struct {
	bytes, blocks int64
}

// memovhVariants are the allocation strategies the §4.4 memory-
// overhead accounting compares, in column order.
var memovhVariants = []olden.Variant{
	olden.Base, olden.CCMallocFirstFit, olden.CCMallocClosest, olden.CCMallocNewBlock,
}

// memovhSpec regenerates the §4.4 memory-overhead accounting as one
// job per benchmark/strategy cell.
func memovhSpec() Spec {
	return Spec{
		ID:   "memovh",
		Desc: "heap footprint by allocation strategy (§4.4)",
		Jobs: func(full bool) []Job {
			var js []Job
			for _, b := range oldenBenches {
				for _, v := range memovhVariants {
					b, v := b, v
					js = append(js, Job{
						Name: "memovh/" + b.name + "/" + v.Name(),
						Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
							env := olden.NewEnvIn(s, v, oldenMachine.at(full))
							r := b.run(env, full)
							fp := footprint{bytes: r.HeapBytes}
							if cc, ok := env.Alloc.(*ccmalloc.Allocator); ok {
								fp.blocks = cc.BlocksUsed()
							}
							return fp, nil
						},
					})
				}
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "memovh",
				Title:  "Heap footprint by allocation strategy",
				Header: []string{"Benchmark", "base", "first-fit", "closest", "new-block", "FA blocks", "NA blocks", "NA vs FA blocks"},
			}
			for i, b := range oldenBenches {
				cells := make([]footprint, len(memovhVariants))
				ok := true
				for j := range memovhVariants {
					fp, got := out[i*len(memovhVariants)+j].(footprint)
					if !got {
						ok = false
						break
					}
					cells[j] = fp
				}
				if !ok {
					continue
				}
				base, fa, ca, na := cells[0], cells[1], cells[2], cells[3]
				tab.Rows = append(tab.Rows, []string{
					b.name, kb(base.bytes), kb(fa.bytes), kb(ca.bytes), kb(na.bytes),
					fmt.Sprintf("%d", fa.blocks), fmt.Sprintf("%d", na.blocks),
					pct(100*float64(na.blocks)/float64(fa.blocks) - 100),
				})
			}
			tab.Notes = append(tab.Notes,
				"paper: new-block needs +12% (treeadd), +7% (health), +3% (mst), +30% (perimeter) more memory;",
				"the cache-block column exposes the reservation slack that page-granular footprints can hide")
			return tab
		},
	}
}

// fig10Params sizes Fig10's sweep (fig10Inputs): the tree sizes and
// the measured searches per size.
type fig10Params struct {
	sizes    []int64
	searches int
}

// fig10Cell is one tree-size point: predicted and measured speedup.
type fig10Cell struct {
	pred, meas float64
}

// fig10Spec regenerates the model validation (paper Figure 10) as one
// job per tree size.
func fig10Spec() Spec {
	return Spec{
		ID:   "fig10",
		Desc: "predicted vs measured C-tree speedup across tree sizes (paper Fig. 10)",
		Jobs: func(full bool) []Job {
			mcfg, p := treeMachine.at(full), fig10Inputs.at(full)
			params := model.PaperParams()
			var js []Job
			for _, n := range p.sizes {
				n := n
				js = append(js, Job{
					Name: fmt.Sprintf("fig10/%d", n),
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						pred, meas := fig10Point(s, mcfg, n, p.searches, params)
						return fig10Cell{pred: pred, meas: meas}, nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			p := fig10Inputs.at(full)
			tab := Table{
				ID:     "fig10",
				Title:  "Predicted and measured C-tree speedup vs tree size",
				Header: []string{"Tree size", "predicted", "measured", "pred/meas"},
			}
			for i, n := range p.sizes {
				c, ok := out[i].(fig10Cell)
				if !ok {
					continue
				}
				tab.Rows = append(tab.Rows, []string{
					fmt.Sprintf("%d", n), f2(c.pred), f2(c.meas), f2(c.pred / c.meas),
				})
			}
			tab.Notes = append(tab.Notes,
				"the model tracks the curve's shape with a roughly constant bias, as in the paper;",
				"here it overestimates (~1.4x) because the Figure 8 naive baseline assumes zero reuse",
				"(K=1, R=0) while the simulated random tree still caches its root-most levels.",
				"The paper's bias ran the other way (-15%), from TLB gains its model omitted.")
			return tab
		},
	}
}

// fig10Point measures one tree size: naive (random-placement) search
// time over C-tree search time, against the analytic prediction.
func fig10Point(sctx *sim.Sim, mcfg cache.Config, n int64, searches int, params model.CacheParams) (pred, meas float64) {
	lc := mcfg.Levels[1]
	ct := model.CTree{
		N:       n,
		K:       lc.BlockSize / trees.BSTNodeSize,
		Sets:    lc.Sets(),
		Assoc:   int64(lc.Assoc),
		HotFrac: 0.5,
	}
	pred = ct.PredictedSpeedup(params)
	meas = ctreeSpeedup(sctx, mcfg, n, searches, 0.5)
	return pred, meas
}
