package profile

import (
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
)

// benchAddrs precomputes a steady-state access pattern so the
// benchmark loop measures only the access + observer path.
func benchAddrs() []memsys.Addr {
	addrs := make([]memsys.Addr, 1024)
	x := int64(1)
	for i := range addrs {
		x = (x*1103515245 + 12345) & 0x7fffffff
		addrs[i] = elemBase.Add((x%elemCount)*elemStride + (x>>8)%elemSize)
	}
	return addrs
}

func benchProfiled(b *testing.B, every int64) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{SampleEvery: every, EpochLen: 4096, MaxEpochs: 8})
	registerNodes(p)
	benchStream(b, h, benchAddrs())
}

// BenchmarkProfiledAccess measures a demand access with the profiler
// attributing every access (worst case: no sampling fast path).
func BenchmarkProfiledAccess(b *testing.B) { benchProfiled(b, 1) }

// BenchmarkProfiledAccessSampled measures the intended configuration:
// the counter-decrement fast path takes all but 1/31 of accesses.
func BenchmarkProfiledAccessSampled(b *testing.B) { benchProfiled(b, 31) }

// BenchmarkCollectorOnlyAccess is the pre-existing telemetry observer
// on the same workload — the cost floor the profiler's epoch layer
// adds onto.
func BenchmarkCollectorOnlyAccess(b *testing.B) {
	h := cache.New(twoLevel())
	p := New(twoLevel(), Config{})
	h.SetObserver(p.Collector())
	benchStream(b, h, benchAddrs())
}

// BenchmarkCollectorRegionsAccess is the collector with 1,024
// per-element regions registered through RegisterElems — 40-byte
// entries at a 48-byte stride, as serving.LRU registers its entries —
// on a skewed stream over those elements: an entry's popularity rank
// is the product of two uniform draws scaled to [0, 1024), so low ranks
// are hot, and an odd multiplier scatters ranks over the entries, since
// popularity does not follow allocation order. Nearly every access
// lands in another entry than the one before, so this is the region
// lookup under per-element registration (TestCheckedInBaseline holds
// it to a multiple of BenchmarkCollectorOnlyAccess).
func BenchmarkCollectorRegionsAccess(b *testing.B) {
	const (
		entries = 1024
		size    = 40
		stride  = 48
	)
	h := cache.New(twoLevel())
	p := New(twoLevel(), Config{})
	h.SetObserver(p.Collector())
	elems := make([]memsys.Addr, entries)
	for i := range elems {
		elems[i] = elemBase.Add(int64(i) * stride)
	}
	p.Regions().RegisterElems("entries", elems, size)
	addrs := make([]memsys.Addr, 1024)
	x := int64(1)
	for i := range addrs {
		x = (x*1103515245 + 12345) & 0x7fffffff
		u, v := (x>>4)%entries, (x>>14)%entries
		elem := (u * v / entries * 389) % entries
		addrs[i] = elemBase.Add(elem*stride + (x>>24)%(size-4))
	}
	benchStream(b, h, addrs)
}

// BenchmarkBareAccess is the same stream with no observer attached:
// the rung the collector's cost is a ratio of (TestCheckedInBaseline
// in internal/perf holds the recorded collector to 3x this entry).
func BenchmarkBareAccess(b *testing.B) { benchStream(b, cache.New(twoLevel()), benchAddrs()) }

// benchStream warms h on addrs (regions sampled, shadow populated) and
// times one access per iteration over the same 1,024 addresses.
func benchStream(b *testing.B, h *cache.Hierarchy, addrs []memsys.Addr) {
	for _, a := range addrs {
		h.Access(a, 4, cache.Load)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&1023], 4, cache.Load)
	}
}
