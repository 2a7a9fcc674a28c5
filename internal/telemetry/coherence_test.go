package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

func topo2() *machine.Topology {
	return machine.NewTopology(machine.TopologyConfig{
		Cores: 2,
		Private: cache.Config{
			Levels: []cache.LevelConfig{
				{Name: "L1", Size: 1 << 10, Assoc: 1, BlockSize: 16, Latency: 1, WriteBack: true},
			},
			MemLatency: 8,
		},
		LLC:        cache.LevelConfig{Name: "LLC", Size: 8 << 10, Assoc: 4, BlockSize: 64, Latency: 12, WriteBack: true},
		MemLatency: 60,
	})
}

// attachCores attaches a collector to every core's private cache, the
// pattern the bench multicore experiment uses.
func attachCores(tp *machine.Topology) []*Collector {
	cols := make([]*Collector, tp.Cores())
	for i := range cols {
		cols[i] = Attach(tp.PrivateCache(i))
	}
	return cols
}

func TestCoherenceMissClassification(t *testing.T) {
	tp := topo2()
	cols := attachCores(tp)
	tp.Arena.AlignBrk(64)
	a := tp.Arena.Sbrk(64)
	cols[0].Regions().Register("counters", a, 64)

	// Core 0 owns the line; core 1's store invalidates it; core 0's
	// reload must classify as a coherence miss, not capacity/conflict.
	tp.Core(0).StoreInt(a, 1)
	tp.Core(1).StoreInt(a.Add(8), 2)
	tp.Core(0).LoadInt(a)

	_, _, _, coh := cols[0].Misses(0)
	if coh != 1 {
		t.Fatalf("core 0 coherence misses = %d, want 1", coh)
	}
	rep := cols[0].Report()
	if rep.Levels[0].Coherence != 1 {
		t.Fatalf("report coherence = %d, want 1", rep.Levels[0].Coherence)
	}
	if rep.Regions[0].Label != "counters" || rep.Regions[0].Invalidations != 1 {
		t.Fatalf("region attribution %+v, want 1 invalidation on counters", rep.Regions[0])
	}
	if rep.Regions[0].Coherence != 1 {
		t.Fatalf("region coherence = %d, want 1", rep.Regions[0].Coherence)
	}

	// The mark is consumed: a capacity-style re-miss later must not
	// classify as coherence again.
	tp.Core(0).LoadInt(a)
	_, _, _, coh = cols[0].Misses(0)
	if coh != 1 {
		t.Fatalf("coherence count moved to %d on a plain hit/miss", coh)
	}
}

func TestFourCSumsToMisses(t *testing.T) {
	tp := topo2()
	cols := attachCores(tp)
	for i := 0; i < 4000; i++ {
		core := i % 2
		addr := memsys.Addr((i * 40) % 4096)
		kind := cache.Load
		if i%3 == 0 {
			kind = cache.Store
		}
		tp.Access(core, addr, 8, kind)
	}
	for c, col := range cols {
		rep := col.Report()
		for _, lr := range rep.Levels {
			if lr.Compulsory+lr.Capacity+lr.Conflict+lr.Coherence != lr.Misses {
				t.Fatalf("core %d level %s: 4C classes sum %d != misses %d",
					c, lr.Name, lr.Compulsory+lr.Capacity+lr.Conflict+lr.Coherence, lr.Misses)
			}
		}
	}
}

// Single-core reports must not grow a coherence field: the JSON stays
// byte-compatible with every golden recorded before the 4C model.
func TestSingleCoreReportOmitsCoherence(t *testing.T) {
	h := cache.New(cache.Config{
		Levels:     []cache.LevelConfig{{Name: "L1", Size: 1 << 10, Assoc: 1, BlockSize: 16, Latency: 1}},
		MemLatency: 40,
	})
	col := Attach(h)
	col.Regions().Register("r", 0, 128)
	for i := int64(0); i < 64; i++ {
		h.Access(memsys.Addr(i*16), 8, cache.Load)
	}
	buf, err := json.Marshal(col.Report())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), "coherence") || strings.Contains(string(buf), "invalidations") {
		t.Fatalf("single-core report leaked 4C fields: %s", buf)
	}
}
