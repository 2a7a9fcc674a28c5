package cache

import (
	"testing"

	"ccl/internal/memsys"
)

// The microbenchmarks isolate the demand path's regimes so a
// regression pinpoints itself: pure L1 hits (the floor every access
// pays), streaming misses (descent + install), block-spanning splits,
// and the TLB hit/miss paths. cmd/ccperf runs them with fixed
// iteration counts and gates them against BENCH_sim.json.

// BenchmarkAccessL1Hit hammers one resident block: the shortest
// possible trip through accessOne.
func BenchmarkAccessL1Hit(b *testing.B) {
	h := New(RSIMHierarchy())
	h.Access(0, 8, Load)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 8, Load)
	}
}

// BenchmarkAccessMissStream strides by one L2 block so every access
// misses every level: full descent, probe install, eviction traffic.
func BenchmarkAccessMissStream(b *testing.B) {
	h := New(RSIMHierarchy())
	block := h.LastLevel().BlockSize
	var addr memsys.Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addr, 8, Load)
		addr = addr.Add(block)
		if int64(addr) >= 8<<20 {
			addr = 0
		}
	}
}

// BenchmarkAccessSpanning issues misaligned accesses that straddle a
// block boundary, exercising the allocation-free split path.
func BenchmarkAccessSpanning(b *testing.B) {
	h := New(PaperHierarchy())
	block := h.Level(0).BlockSize
	var addr memsys.Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addr.Add(block-4), 8, Load) // always crosses a block edge
		addr = addr.Add(block)
		if int64(addr) >= 1<<20 {
			addr = 0
		}
	}
}

// BenchmarkAccessTLB strides by one page over four times the TLB
// reach: a cyclic stream over more pages than entries, so under LRU
// every access misses the TLB and the set's evict-and-insert path
// (package lru) stays hot. TestCheckedInBaseline holds its recorded
// cost to 2x BenchmarkAccessMissStream.
func BenchmarkAccessTLB(b *testing.B) {
	cfg := PaperHierarchy()
	h := New(cfg)
	page := cfg.TLB.PageSize
	span := memsys.Addr(int64(cfg.TLB.Entries) * page * 4)
	var addr memsys.Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addr, 8, Load)
		addr = memsys.Addr((int64(addr) + page) % int64(span))
	}
}
