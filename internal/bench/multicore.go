// multicore.go is the false-sharing experiment: the mc drivers run on
// the default 4-core topology, each contended structure measured
// packed (concurrently-written fields sharing a coherence granule)
// and padded (one granule per writer). The table shows the multicore
// twin of the paper's thesis — miss class is a layout property — in
// the 4C classifier's coherence column: padding moves coherence
// misses to (near) zero without changing a single executed operation,
// and the read-only tree control shows sharing without writes costs
// nothing.
package bench

import (
	"context"
	"fmt"

	"ccl/internal/machine"
	"ccl/internal/mc"
	"ccl/internal/sim"
)

// multicoreParams sizes the experiment (multicoreInputs).
type multicoreParams struct {
	cores     int
	iters     int // counter increments per core
	kvOps     int // kv operations per core
	kvSlots   int64
	kvKeys    int
	treeNodes int64
	searches  int // tree searches per core
}

// mcCell is one driver/layout measurement.
type mcCell struct {
	config   string
	ops      int64   // total operations across cores
	cycPerOp float64 // makespan / ops
	cohMiss  int64   // 4C coherence-class misses, all cores
	inval    int64   // remote copies invalidated
	fwb      int64   // forced writebacks
}

func (c mcCell) row() []string {
	return []string{
		c.config,
		fmt.Sprintf("%d", c.ops),
		f1(c.cycPerOp),
		fmt.Sprintf("%d", c.cohMiss),
		fmt.Sprintf("%d", c.inval),
		fmt.Sprintf("%d", c.fwb),
	}
}

// cellOf reduces a driver result to a table cell.
func cellOf(config string, res mc.Result, ops int64) mcCell {
	return mcCell{
		config:   config,
		ops:      ops,
		cycPerOp: float64(res.Makespan) / float64(ops),
		cohMiss:  res.CoherenceMisses(),
		inval:    res.Coh.CopiesInvalidated,
		fwb:      res.Coh.ForcedWritebacks,
	}
}

// multicoreTopology builds the experiment machine: the default
// server-shaped topology on the run's sim context.
func multicoreTopology(s *sim.Sim, cores int) *machine.Topology {
	return s.NewTopology(machine.DefaultTopologyConfig(cores))
}

func multicoreCounters(s *sim.Sim, p multicoreParams, stride int64, label string) mcCell {
	tp := multicoreTopology(s, p.cores)
	res, _ := mc.Counters(tp, mc.CounterConfig{Iters: p.iters, Stride: stride})
	return cellOf(label, res, int64(p.iters)*int64(p.cores))
}

func multicoreKV(s *sim.Sim, p multicoreParams, stride int64, label string) mcCell {
	tp := multicoreTopology(s, p.cores)
	res := mc.KV(tp, mc.KVConfig{
		Slots: p.kvSlots, Ops: p.kvOps, KeyRange: p.kvKeys,
		StatsStride: stride, Seed: 7,
	})
	return cellOf(label, res.Result, int64(p.kvOps)*int64(p.cores))
}

func multicoreTree(s *sim.Sim, p multicoreParams) mcCell {
	tp := multicoreTopology(s, p.cores)
	res := mc.TreeSearch(tp, mc.TreeConfig{Nodes: p.treeNodes, Searches: p.searches, Seed: 7})
	return cellOf("shared tree search (read-only control)", res.Result, int64(p.searches)*int64(p.cores))
}

// multicoreSpec declares the false-sharing experiment.
func multicoreSpec() Spec {
	return Spec{
		ID:   "multicore",
		Desc: "false sharing: packed vs padded layouts under MESI, with 4C attribution",
		Jobs: func(full bool) []Job {
			p := multicoreInputs.at(full)
			granule := machine.DefaultTopologyConfig(p.cores).LLC.BlockSize
			type cellJob struct {
				name string
				run  func(s *sim.Sim) mcCell
			}
			cells := []cellJob{
				{"counters/packed", func(s *sim.Sim) mcCell {
					return multicoreCounters(s, p, 8, "per-core counters, packed (stride 8)")
				}},
				{"counters/padded", func(s *sim.Sim) mcCell {
					return multicoreCounters(s, p, granule, fmt.Sprintf("per-core counters, padded (stride %d)", granule))
				}},
				{"kv/packed-stats", func(s *sim.Sim) mcCell {
					return multicoreKV(s, p, 16, "sharded KV, packed stats block (stride 16)")
				}},
				{"kv/padded-stats", func(s *sim.Sim) mcCell {
					return multicoreKV(s, p, granule, fmt.Sprintf("sharded KV, padded stats block (stride %d)", granule))
				}},
				{"tree/readonly", func(s *sim.Sim) mcCell {
					return multicoreTree(s, p)
				}},
			}
			var js []Job
			for _, c := range cells {
				c := c
				js = append(js, Job{
					Name: "multicore/" + c.name,
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						return c.run(s), nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "multicore",
				Title:  "False sharing under MESI (4 cores, 64-byte granule)",
				Header: []string{"Configuration", "Ops", "Cycles/op", "Coherence misses", "Invalidations", "Forced WBs"},
			}
			for _, v := range out {
				if c, ok := v.(mcCell); ok {
					tab.Rows = append(tab.Rows, c.row())
				}
			}
			tab.Notes = append(tab.Notes,
				"packed layouts put concurrently-written fields in one coherence granule: every write invalidates every other core's copy",
				"padding to the granule removes every coherence miss without changing one executed operation",
				"the read-only tree control holds all its blocks Shared: sharing is free until somebody writes",
			)
			return tab
		},
	}
}
