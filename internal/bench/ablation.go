package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ccl/internal/cache"
	"ccl/internal/heap"
	"ccl/internal/olden"
	healthpkg "ccl/internal/olden/health"
	"ccl/internal/sim"
	"ccl/internal/trees"
)

// Ablation experiments probe the design choices DESIGN.md calls out:
// how much cache to color (the paper's Color_const parameter, §3.1.1)
// and how clustering's benefit scales with cache-block size (the
// model's log2(k+1) spatial-locality claim, §5.3).

// ctreeSpeedup measures naive-vs-morphed search time for one machine
// configuration and coloring fraction, in the given run context.
func ctreeSpeedup(s *sim.Sim, cfg cache.Config, n int64, searches int, colorFrac float64) float64 {
	measure := func(morph bool) float64 {
		m := s.NewMachine(cfg)
		t := trees.MustBuild(m, heap.New(m.Arena), n, trees.RandomOrder, 11)
		if morph {
			_, err := t.Morph(colorFrac, nil)
			check(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < searches/4; i++ { // steady state (§5.3)
			t.Search(uint32(rng.Int63n(n)) + 1)
		}
		m.ResetStats()
		for i := 0; i < searches; i++ {
			t.Search(uint32(rng.Int63n(n)) + 1)
		}
		return float64(m.Stats().TotalCycles()) / float64(searches)
	}
	return measure(false) / measure(true)
}

// searchParams sizes a tree-search workload: the tree's key count and
// the measured searches.
type searchParams struct {
	keys     int64
	searches int
}

// colorFracs are the Color_const sweep points. Zero is
// clustering-only.
var colorFracs = []float64{0, 0.125, 0.25, 0.5, 0.75}

// ablationColorSpec sweeps the Color_const parameter: how much of the
// cache the reorganizer reserves for the structure's hottest
// elements. One job per fraction.
func ablationColorSpec() Spec {
	return Spec{
		ID:   "ablate-color",
		Desc: "Color_const sweep: C-tree speedup vs colored cache fraction",
		Jobs: func(full bool) []Job {
			mcfg, p := treeMachine.at(full), ablationInputs.at(full)
			var js []Job
			for _, frac := range colorFracs {
				js = append(js, Job{
					Name: fmt.Sprintf("ablate-color/%.3f", frac),
					Run: func(ctx context.Context, s *sim.Sim, _ bool) (any, error) {
						return ctreeSpeedup(s, mcfg, p.keys, p.searches, frac), nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "ablate-color",
				Title:  "Color_const ablation: C-tree speedup vs colored cache fraction",
				Header: []string{"ColorFrac", "speedup vs naive"},
			}
			for i, frac := range colorFracs {
				sp, ok := out[i].(float64)
				if !ok {
					continue
				}
				tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%.3f", frac), f2(sp)})
			}
			tab.Notes = append(tab.Notes,
				"clustering-only (0) sets the floor; over-coloring starves the cold region",
				"the paper's experiments use one half (§5.4)")
			return tab
		},
	}
}

// blockSizes are the L2 block-size sweep points.
var blockSizes = []int64{32, 64, 128, 256}

// ablationBlockSpec sweeps the L2 block size, comparing the measured
// clustering benefit against the model's K = log2(k+1) spatial
// locality function (§5.3): bigger blocks pack more nodes per
// transfer, with logarithmically growing path coverage.
func ablationBlockSpec() Spec {
	return Spec{
		ID:   "ablate-block",
		Desc: "block-size sweep vs the model's K = log2(k+1)",
		Jobs: func(full bool) []Job {
			mcfg, p := blockMachine.at(full), ablationInputs.at(full)
			var js []Job
			for _, bs := range blockSizes {
				js = append(js, Job{
					Name: fmt.Sprintf("ablate-block/%dB", bs),
					Run: func(ctx context.Context, s *sim.Sim, _ bool) (any, error) {
						// The row is shared: set the block size on a copy.
						cfg := mcfg
						cfg.Levels = slices.Clone(cfg.Levels)
						cfg.Levels[1].BlockSize = bs
						// Keep L1 no larger-blocked than L2.
						cfg.Levels[0].BlockSize = min(cfg.Levels[0].BlockSize, bs)
						return ctreeSpeedup(s, cfg, p.keys, p.searches, 0.5), nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "ablate-block",
				Title:  "Block-size ablation: clustering speedup vs model K = log2(k+1)",
				Header: []string{"L2 block", "k", "model K", "measured speedup"},
			}
			for i, bs := range blockSizes {
				sp, ok := out[i].(float64)
				if !ok {
					continue
				}
				k := bs / trees.BSTNodeSize
				if k < 1 {
					k = 1
				}
				tab.Rows = append(tab.Rows, []string{
					fmt.Sprintf("%dB", bs),
					fmt.Sprintf("%d", k),
					f2(math.Log2(float64(k) + 1)),
					f2(sp),
				})
			}
			tab.Notes = append(tab.Notes,
				"the measured speedup should grow with block size roughly like the model's K")
			return tab
		},
	}
}

// morphIntervals are the health reorganization-period sweep points.
var morphIntervals = []int{5, 10, 15, 25, 50, 75}

// ablationIntervalSpec sweeps health's ccmorph reorganization period.
// The paper notes "no attempt was made to determine the optimal
// interval between invocations" (§4.4); this experiment maps the
// trade-off between reorganization cost and the decay of its benefit
// as the lists churn. Job 0 is the no-morph baseline; the checksum
// cross-check happens at assembly, where every run's result is in
// hand.
func ablationIntervalSpec() Spec {
	return Spec{
		ID:   "ablate-interval",
		Desc: "health: ccmorph reorganization interval sweep",
		Jobs: func(full bool) []Job {
			mcfg, cfg := oldenMachine.at(full), healthConfig.at(full)
			js := []Job{{
				Name: "ablate-interval/base",
				Run: func(ctx context.Context, s *sim.Sim, _ bool) (any, error) {
					c := cfg
					c.MorphInterval = 0
					return healthpkg.Run(olden.NewEnvIn(s, olden.Base, mcfg), c), nil
				},
			}}
			for _, iv := range morphIntervals {
				js = append(js, Job{
					Name: fmt.Sprintf("ablate-interval/%d", iv),
					Run: func(ctx context.Context, s *sim.Sim, _ bool) (any, error) {
						c := cfg
						c.MorphInterval = iv
						return healthpkg.Run(olden.NewEnvIn(s, olden.CCMorphClusterColor, mcfg), c), nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "ablate-interval",
				Title:  "health: ccmorph reorganization interval sweep (normalized cycles)",
				Header: []string{"Interval (steps)", "normalized", "heap"},
			}
			base, haveBase := out[0].(olden.Result)
			for i, iv := range morphIntervals {
				r, ok := out[i+1].(olden.Result)
				if !ok || !haveBase {
					continue
				}
				if r.Check != base.Check {
					// Checksum divergence is a harness bug, not a
					// recoverable condition; the runner's recover records
					// it as a structured failure instead of killing the
					// sweep.
					panic("bench: morph interval changed health's result")
				}
				tab.Rows = append(tab.Rows, []string{
					fmt.Sprintf("%d", iv),
					pct(100 * float64(r.Cycles()) / float64(base.Cycles())),
					kb(r.HeapBytes),
				})
			}
			tab.Notes = append(tab.Notes,
				"too-frequent reorganization pays copy costs; too-rare lets churn scatter the lists",
				"base (no morph) = 100%")
			return tab
		},
	}
}
