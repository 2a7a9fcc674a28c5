// serving.go is the serving-workload experiment: the Zipfian KV
// store, LRU cache, and d-ary priority queue of internal/apps/serving
// raced across their layout and placement variants on one machine
// geometry. The table is the paper's thesis restated for a serving
// tier: the op stream never changes, only structure layout does, and
// cycles per op follow the miss attribution — probe headers packed
// densely (and, colored, isolated from payload conflicts) beat the
// conventional one-line-per-slot layout as soon as negative lookups
// make probing the dominant traffic.
package bench

import (
	"context"
	"fmt"

	"ccl/internal/apps/serving"
	"ccl/internal/machine"
	"ccl/internal/sim"
	"ccl/internal/telemetry"
)

// servingParams sizes the workloads (servingInputs). The
// fixed-capacity KV table is sized so the warm phase leaves occupancy
// at 2/3: the split header array (32 KB) fits servingMachine's last
// level, the AoS slot array (256 KB) does not — the layout choice is
// the whole working-set story.
type servingParams struct {
	kvKeys, kvSlots, kvOps  int64
	lruKeys, lruCap, lruIdx int64
	lruOps                  int64
	pqFill, pqOps           int64
}

// servingCell is one workload/variant measurement.
type servingCell struct {
	workload string
	config   string
	zipfS    float64
	ops      int64
	cycPerOp float64
	llMissK  float64 // last-level misses per 1000 ops
	llConfK  float64 // last-level conflict misses per 1000 ops
	hotLabel string
	hotMissK float64 // hot-region last-level misses per 1000 ops
	hitRate  float64 // workload hits / (hits + misses)
}

func (c servingCell) row() []string {
	return []string{
		c.workload,
		c.config,
		f2(c.zipfS),
		fmt.Sprintf("%d", c.ops),
		f1(c.cycPerOp),
		f1(c.llMissK),
		f1(c.llConfK),
		c.hotLabel,
		f1(c.hotMissK),
		f2(c.hitRate),
	}
}

// servingCellFrom reduces a measured phase to a cell.
func servingCellFrom(workload, config string, zs float64, st serving.WorkloadStats,
	rep telemetry.Report, cycles int64, hotLabel string) servingCell {
	c := servingCell{
		workload: workload, config: config, zipfS: zs,
		ops:      st.Ops,
		cycPerOp: float64(cycles) / float64(st.Ops),
		hotLabel: hotLabel,
	}
	if ll := len(rep.Levels) - 1; ll >= 0 {
		c.llMissK = 1000 * float64(rep.Levels[ll].Misses) / float64(st.Ops)
		c.llConfK = 1000 * float64(rep.Levels[ll].Conflict) / float64(st.Ops)
		for _, r := range rep.Regions {
			if r.Label == hotLabel && len(r.MissesByLevel) > ll {
				c.hotMissK = 1000 * float64(r.MissesByLevel[ll]) / float64(st.Ops)
			}
		}
	}
	if st.Hits+st.Misses > 0 {
		c.hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	return c
}

func servingKVCell(m *machine.Machine, p servingParams, cfg serving.KVConfig, zs float64) servingCell {
	cfg.Slots = p.kvSlots
	kv := must(serving.NewKV(m, cfg))
	check(serving.WarmKV(kv, p.kvKeys))
	col := telemetry.Attach(m.Cache)
	hot := kv.RegisterRegions(col.Regions(), "kv")
	col.Reset()
	m.ResetStats()
	start := m.Now()
	st := must(serving.RunKV(kv, serving.KVWorkload{
		Seed: 7, S: zs, Keys: p.kvKeys, Ops: p.kvOps, PutEvery: 8,
	}))
	check(kv.CheckInvariants())
	config := fmt.Sprintf("%v %v", cfg.Layout, cfg.Placement)
	return servingCellFrom("kv", config, zs, st, col.Report(), m.Now()-start, hot)
}

func servingLRUCell(m *machine.Machine, p servingParams, cfg serving.LRUConfig, zs float64) servingCell {
	cfg.Capacity = p.lruCap
	cfg.IndexSlots = p.lruIdx
	c := must(serving.NewLRU(m, cfg))
	// Warm to steady state so the measured phase sees the stable
	// hit/evict mix, not the cold fill.
	_ = must(serving.RunLRU(c, serving.LRUWorkload{Seed: 6, S: zs, Keys: p.lruKeys, Ops: p.lruCap * 2}))
	col := telemetry.Attach(m.Cache)
	hot := c.RegisterRegions(col.Regions(), "lru")
	col.Reset()
	m.ResetStats()
	start := m.Now()
	st := must(serving.RunLRU(c, serving.LRUWorkload{Seed: 7, S: zs, Keys: p.lruKeys, Ops: p.lruOps}))
	check(c.CheckInvariants())
	layoutName := "colocated"
	if cfg.Split {
		layoutName = "split-links"
	}
	config := fmt.Sprintf("%s %v", layoutName, cfg.Placement)
	return servingCellFrom("lru", config, zs, st, col.Report(), m.Now()-start, hot)
}

func servingPQCell(m *machine.Machine, p servingParams, arity int64, zs float64) servingCell {
	q := must(serving.NewPQueue(m, serving.PQConfig{Arity: arity, Cap: p.pqFill + 1}))
	w := serving.PQWorkload{Seed: 9, S: zs, Fill: p.pqFill, Ops: p.pqOps}
	check(serving.FillPQ(q, w))
	col := telemetry.Attach(m.Cache)
	hot := q.RegisterRegions(col.Regions(), "pq")
	col.Reset()
	m.ResetStats()
	start := m.Now()
	st := must(serving.RunPQ(q, w))
	check(q.CheckInvariants())
	config := fmt.Sprintf("%d-ary aligned", arity)
	return servingCellFrom("pq", config, zs, st, col.Report(), m.Now()-start, hot)
}

// servingSpec declares the serving-workload experiment. The variant
// tables live inside Jobs so constructing the Spec (which Registry()
// does on every Lookup) stays allocation-light.
func servingSpec() Spec {
	return Spec{
		ID:   "serving",
		Desc: "serving workloads: Zipfian KV, LRU cache, d-ary heap across layout variants",
		Jobs: func(full bool) []Job {
			kvRace := []serving.KVConfig{
				{Layout: serving.KVAoS, Placement: serving.KVMalloc},
				{Layout: serving.KVAoS, Placement: serving.KVCCMalloc},
				{Layout: serving.KVSplit, Placement: serving.KVMalloc},
				{Layout: serving.KVSplit, Placement: serving.KVCCMalloc},
				{Layout: serving.KVSplit, Placement: serving.KVColored},
			}
			lruRace := []serving.LRUConfig{
				{Split: false, Placement: serving.LRUMalloc},
				{Split: false, Placement: serving.LRUCCMalloc},
				{Split: true, Placement: serving.LRUMalloc},
				{Split: true, Placement: serving.LRUCCMalloc},
			}
			mcfg, p := servingMachine.at(full), servingInputs.at(full)
			var js []Job
			addJob := func(name string, run func(m *machine.Machine) servingCell) {
				js = append(js, Job{
					Name: "serving/" + name,
					Run: func(ctx context.Context, s *sim.Sim, _ bool) (any, error) {
						return run(s.NewMachine(mcfg)), nil
					},
				})
			}
			// The full KV race at the serving-canonical skew, then the
			// conventional baseline against the strongest variant at
			// the skew extremes.
			for _, cfg := range kvRace {
				addJob(fmt.Sprintf("kv/%v-%v/s0.99", cfg.Layout, cfg.Placement),
					func(m *machine.Machine) servingCell { return servingKVCell(m, p, cfg, 0.99) })
			}
			for _, zs := range []float64{0.8, 1.2} {
				addJob(fmt.Sprintf("kv/aos-malloc/s%v", zs),
					func(m *machine.Machine) servingCell {
						return servingKVCell(m, p, serving.KVConfig{Layout: serving.KVAoS, Placement: serving.KVMalloc}, zs)
					})
				addJob(fmt.Sprintf("kv/split-colored/s%v", zs),
					func(m *machine.Machine) servingCell {
						return servingKVCell(m, p, serving.KVConfig{Layout: serving.KVSplit, Placement: serving.KVColored}, zs)
					})
			}
			for _, cfg := range lruRace {
				addJob(fmt.Sprintf("lru/split=%v-%v", cfg.Split, cfg.Placement),
					func(m *machine.Machine) servingCell { return servingLRUCell(m, p, cfg, 0.99) })
			}
			for _, arity := range []int64{2, 4, 8} {
				addJob(fmt.Sprintf("pq/arity%d", arity),
					func(m *machine.Machine) servingCell { return servingPQCell(m, p, arity, 0.99) })
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:    "serving",
				Title: "Serving workloads: layout races over the simulated heap",
				Header: []string{"Workload", "Configuration", "Zipf s", "Ops",
					"Cycles/op", "LL miss/Kop", "LL conflict/Kop", "Hot region", "Hot miss/Kop", "Hit rate"},
			}
			var cells []servingCell
			for _, v := range out {
				if c, ok := v.(servingCell); ok {
					cells = append(cells, c)
					tab.Rows = append(tab.Rows, c.row())
				}
			}
			// Attribute the headline win: best KV variant vs the
			// conventional baseline at s=0.99.
			var base *servingCell
			var best *servingCell
			for i := range cells {
				c := &cells[i]
				if c.workload != "kv" || c.zipfS != 0.99 {
					continue
				}
				if c.config == "aos malloc" {
					base = c
				} else if best == nil || c.cycPerOp < best.cycPerOp {
					best = c
				}
			}
			if base != nil && best != nil {
				tab.Notes = append(tab.Notes, fmt.Sprintf(
					"kv s=0.99: %s serves at %.1f cycles/op vs %.1f conventional (%.0f%% less), hot-region misses %.1f/Kop vs %.1f/Kop, LL conflicts %.1f/Kop vs %.1f/Kop",
					best.config, best.cycPerOp, base.cycPerOp,
					100*(1-best.cycPerOp/base.cycPerOp),
					best.hotMissK, base.hotMissK, best.llConfK, base.llConfK))
			}
			tab.Notes = append(tab.Notes,
				"the op streams are identical within a workload row group: only structure layout and placement change",
				"lru: the co-located intrusive entry wins — the payload rides the entry's own lines, and recency-hint placement decays under eviction churn (a 40-byte entry cannot share a 64-byte block)",
				"kv split layouts pack 8 probe headers per 64-byte line; the AoS baseline pays one line per probed slot",
				"coloring places probe headers in a reserved stripe of the direct-mapped last level, isolating them from payload conflicts",
				"the 4-ary heap matches sibling groups to cache lines: one line per sift level instead of two",
			)
			return tab
		},
	}
}
