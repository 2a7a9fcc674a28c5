// kv.go is the sharded key-value driver: each core owns a private
// hash shard (open addressing, linear probing), so the data plane is
// perfectly partitioned — the only shared structure is the stats
// block where every core counts its hits and misses. That is the
// realistic false-sharing shape: not the payload, but the metadata
// bolted onto it. StatsStride is the layout knob; 16 packs four
// cores' (hits, misses) pairs into one 64-byte granule, the granule
// size pads them apart.
package mc

import (
	"fmt"
	"math/rand"

	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// kvSlot layout: a uint32 key (0 = empty) and an int64 value.
const (
	kvOffKey   = 0
	kvOffValue = 8
	kvSlotSize = 16
)

// KVConfig parameterizes a KV run.
type KVConfig struct {
	// Slots is each shard's capacity (power of two).
	Slots int64
	// Ops is the number of operations each core performs.
	Ops int
	// KeyRange is the per-shard keyspace; keys are drawn uniformly
	// from [1, KeyRange], so re-lookups hit.
	KeyRange int
	// StatsStride is the byte distance between adjacent cores'
	// stats pairs (>= 16; the granule size stops false sharing).
	StatsStride int64
	// Seed derives each core's op stream (seed+core).
	Seed int64
}

// KVResult extends the common result with per-core table outcomes.
type KVResult struct {
	Result
	Hits   []int64 // per-core lookup hits, from the shared stats block
	Misses []int64 // per-core lookup misses (insertions)
}

// KV runs the sharded key-value workload on tp.
func KV(tp *machine.Topology, cfg KVConfig) KVResult {
	if cfg.Slots <= 0 || cfg.Slots&(cfg.Slots-1) != 0 {
		panic(fmt.Sprintf("mc: kv slots %d not a positive power of two", cfg.Slots))
	}
	if cfg.StatsStride < 16 {
		panic(fmt.Sprintf("mc: kv stats stride %d below the 16-byte stats pair", cfg.StatsStride))
	}
	cols := AttachCollectors(tp)
	gran := tp.Config().LLC.BlockSize

	// Shards first, each granule-aligned so cores never share data-
	// plane granules; then the contended stats block.
	shards := make([]memsys.Addr, tp.Cores())
	for i := range shards {
		tp.Arena.AlignBrk(gran)
		shards[i] = tp.Arena.Sbrk(cfg.Slots * kvSlotSize)
	}
	tp.Arena.AlignBrk(gran)
	stats := tp.Arena.Sbrk(cfg.StatsStride * int64(tp.Cores()))
	shardSpan := int64(shards[len(shards)-1]) + cfg.Slots*kvSlotSize - int64(shards[0])
	for _, col := range cols {
		col.Regions().Register("kv-shards", shards[0], shardSpan)
		col.Regions().Register("kv-stats", stats, cfg.StatsStride*int64(tp.Cores()))
	}

	workers := make([]Worker, tp.Cores())
	for i := 0; i < tp.Cores(); i++ {
		c := tp.Core(i)
		shard := shards[i]
		myStats := stats.Add(int64(i) * cfg.StatsStride)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		left := cfg.Ops
		workers[i] = func() bool {
			if left <= 0 {
				return false
			}
			left--
			key := uint32(1 + rng.Intn(cfg.KeyRange))
			hit := kvLookupOrInsert(c, shard, cfg.Slots, key)
			off := int64(kvOffValue) // miss counter
			if hit {
				off = 0 // hit counter
			}
			c.StoreInt(myStats.Add(off), c.LoadInt(myStats.Add(off))+1)
			c.Tick(1)
			return left > 0
		}
	}
	steps := RoundRobin(workers...)

	res := KVResult{Result: collect(tp, steps, cols)}
	for i := 0; i < tp.Cores(); i++ {
		s := stats.Add(int64(i) * cfg.StatsStride)
		res.Hits = append(res.Hits, tp.Arena.LoadInt(s))
		res.Misses = append(res.Misses, tp.Arena.LoadInt(s.Add(kvOffValue)))
	}
	return res
}

// kvLookupOrInsert probes core c's shard for key, inserting the key
// with value key*2 on first sight. It reports whether the lookup hit.
func kvLookupOrInsert(c machine.Mem, shard memsys.Addr, slots int64, key uint32) bool {
	h := int64(key*2654435761) & (slots - 1)
	for probe := int64(0); probe < slots; probe++ {
		slot := shard.Add(((h + probe) & (slots - 1)) * kvSlotSize)
		k := c.Load32(slot.Add(kvOffKey))
		if k == key {
			c.LoadInt(slot.Add(kvOffValue))
			return true
		}
		if k == 0 {
			c.Store32(slot.Add(kvOffKey), key)
			c.StoreInt(slot.Add(kvOffValue), int64(key)*2)
			return false
		}
	}
	panic("mc: kv shard full; raise Slots or lower KeyRange")
}
