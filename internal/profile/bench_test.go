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
	benchStream(b, h)
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
	benchStream(b, h)
}

// BenchmarkBareAccess is the same stream with no observer attached:
// the rung the collector's cost is a ratio of (TestCheckedInBaseline
// in internal/perf holds the recorded collector to 3x this entry).
func BenchmarkBareAccess(b *testing.B) { benchStream(b, cache.New(twoLevel())) }

// benchStream warms h on benchAddrs (regions sampled, shadow
// populated) and times one access per iteration over the same 1,024
// addresses.
func benchStream(b *testing.B, h *cache.Hierarchy) {
	addrs := benchAddrs()
	for _, a := range addrs {
		h.Access(a, 4, cache.Load)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&1023], 4, cache.Load)
	}
}
