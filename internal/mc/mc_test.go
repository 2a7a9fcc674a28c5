package mc

import (
	"math/rand"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/machine"
)

// testTopology is small enough that contention effects appear within
// a few hundred accesses.
func testTopology(cores int) *machine.Topology {
	return machine.NewTopology(machine.TopologyConfig{
		Cores: cores,
		Private: cache.Config{
			Levels: []cache.LevelConfig{
				{Name: "L1", Size: 2 << 10, Assoc: 2, BlockSize: 16, Latency: 1, WriteBack: true},
			},
			MemLatency: 8,
		},
		LLC:        cache.LevelConfig{Name: "LLC", Size: 32 << 10, Assoc: 4, BlockSize: 64, Latency: 12, WriteBack: true},
		MemLatency: 60,
	})
}

func TestCountersFalseSharingContrast(t *testing.T) {
	run := func(stride int64) (Result, []int64) {
		return Counters(testTopology(4), CounterConfig{Iters: 300, Stride: stride})
	}
	packed, pFinals := run(8)
	padded, dFinals := run(64)

	for i := range pFinals {
		if pFinals[i] != 300 || dFinals[i] != 300 {
			t.Fatalf("core %d finals %d/%d, want 300 (interleaving corrupted data?)",
				i, pFinals[i], dFinals[i])
		}
	}
	if packed.CoherenceMisses() == 0 {
		t.Fatal("packed counters produced no coherence misses")
	}
	if padded.CoherenceMisses() != 0 {
		t.Fatalf("padded counters produced %d coherence misses", padded.CoherenceMisses())
	}
	if packed.Coh.CopiesInvalidated <= padded.Coh.CopiesInvalidated {
		t.Fatalf("invalidations: packed %d <= padded %d",
			packed.Coh.CopiesInvalidated, padded.Coh.CopiesInvalidated)
	}
	if packed.Makespan <= padded.Makespan {
		t.Fatalf("makespan: packed %d <= padded %d (protocol latency unpaid?)",
			packed.Makespan, padded.Makespan)
	}
	// Region attribution: the invalidations land on "counters".
	reg := packed.Reports[0].Regions[0]
	if reg.Label != "counters" || reg.Invalidations == 0 {
		t.Fatalf("region attribution %+v, want invalidations on counters", reg)
	}
}

func TestCountersDeterministicAcrossRuns(t *testing.T) {
	a, _ := Counters(testTopology(2), CounterConfig{Iters: 200, Stride: 8})
	b, _ := Counters(testTopology(2), CounterConfig{Iters: 200, Stride: 8})
	if a.Makespan != b.Makespan || a.Coh != b.Coh || a.Steps != b.Steps {
		t.Fatalf("runs diverged: %+v vs %+v", a.Coh, b.Coh)
	}
}

func TestKVMatchesGoMap(t *testing.T) {
	cfg := KVConfig{Slots: 256, Ops: 400, KeyRange: 120, StatsStride: 16, Seed: 9}
	tp := testTopology(4)
	res := KV(tp, cfg)

	for core := 0; core < tp.Cores(); core++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(core)))
		seen := map[uint32]bool{}
		var hits, misses int64
		for op := 0; op < cfg.Ops; op++ {
			key := uint32(1 + rng.Intn(cfg.KeyRange))
			if seen[key] {
				hits++
			} else {
				seen[key] = true
				misses++
			}
		}
		if res.Hits[core] != hits || res.Misses[core] != misses {
			t.Fatalf("core %d: sim %d/%d, reference map %d/%d",
				core, res.Hits[core], res.Misses[core], hits, misses)
		}
	}
}

func TestKVStatsBlockFalseSharing(t *testing.T) {
	run := func(stride int64) KVResult {
		return KV(testTopology(4), KVConfig{
			Slots: 256, Ops: 300, KeyRange: 120, StatsStride: stride, Seed: 5,
		})
	}
	packed := run(16)
	padded := run(64)
	if packed.CoherenceMisses() == 0 {
		t.Fatal("packed stats block produced no coherence misses")
	}
	if packed.CoherenceMisses() <= padded.CoherenceMisses() {
		t.Fatalf("coherence misses: packed %d <= padded %d",
			packed.CoherenceMisses(), padded.CoherenceMisses())
	}
	// The contention must be attributed to the stats block, not the
	// data-plane shards.
	for _, reg := range packed.Reports[0].Regions {
		switch reg.Label {
		case "kv-shards":
			if reg.Invalidations != 0 {
				t.Fatalf("sharded data plane saw %d invalidations", reg.Invalidations)
			}
		case "kv-stats":
			if reg.Invalidations == 0 {
				t.Fatal("stats block saw no invalidations")
			}
		}
	}
}

func TestTreeSearchReadSharingIsFree(t *testing.T) {
	tp := testTopology(4)
	res := TreeSearch(tp, TreeConfig{Nodes: 255, Searches: 200, Seed: 3})
	if res.CoherenceMisses() != 0 {
		t.Fatalf("read-only sharing produced %d coherence misses", res.CoherenceMisses())
	}
	if res.Coh.CopiesInvalidated != 0 {
		t.Fatalf("read-only sharing invalidated %d copies", res.Coh.CopiesInvalidated)
	}
	if res.Coh.SharedGrants == 0 {
		t.Fatal("no shared grants: cores are not actually sharing the tree")
	}
	// Every core draws from the same distribution; all must find keys.
	for i, h := range res.Hits {
		if h == 0 {
			t.Fatalf("core %d found nothing", i)
		}
	}
}

func TestTreeSearchDeterministic(t *testing.T) {
	run := func() TreeResult {
		return TreeSearch(testTopology(2), TreeConfig{Nodes: 127, Searches: 100, Seed: 3})
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Coh != b.Coh {
		t.Fatal("tree search runs diverged")
	}
	for i := range a.Hits {
		if a.Hits[i] != b.Hits[i] {
			t.Fatal("hit counts diverged")
		}
	}
}
