package machine

import (
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
)

func TestTypedOpsChargeCache(t *testing.T) {
	m := NewScaled(16)
	p := m.Arena.Sbrk(64)

	m.StoreInt(p, -7)
	if got := m.LoadInt(p); got != -7 {
		t.Fatalf("LoadInt = %d", got)
	}
	m.StoreFloat(p.Add(8), 2.5)
	if got := m.LoadFloat(p.Add(8)); got != 2.5 {
		t.Fatalf("LoadFloat = %v", got)
	}
	m.Store32(p.Add(16), 99)
	if got := m.Load32(p.Add(16)); got != 99 {
		t.Fatalf("Load32 = %d", got)
	}
	m.StoreAddr(p.Add(20), p)
	if got := m.LoadAddr(p.Add(20)); got != p {
		t.Fatalf("LoadAddr = %v", got)
	}

	s := m.Stats()
	if s.Levels[0].Accesses == 0 {
		t.Fatal("typed ops did not charge the cache")
	}
	if s.TotalCycles() == 0 {
		t.Fatal("no cycles accumulated")
	}
}

func TestTickAndNow(t *testing.T) {
	m := New(cache.PaperHierarchy())
	before := m.Now()
	m.Tick(42)
	if m.Now()-before != 42 {
		t.Fatalf("Now advanced by %d, want 42", m.Now()-before)
	}
	if m.Stats().BusyCycles != 42 {
		t.Fatalf("BusyCycles = %d", m.Stats().BusyCycles)
	}
	m.ResetStats()
	if m.Stats().BusyCycles != 0 {
		t.Fatal("ResetStats did not clear busy cycles")
	}
}

func TestPrefetchNilIsNoop(t *testing.T) {
	m := NewScaled(16)
	before := m.Now()
	m.Prefetch(memsys.NilAddr)
	if m.Now() != before {
		t.Fatal("Prefetch(nil) advanced the clock")
	}
}

func TestPointerPrefetchIssuesFills(t *testing.T) {
	cfg := cache.ScaledHierarchy(16)
	cfg.TLB.Entries = 0
	m := New(cfg)
	p := m.Arena.Sbrk(4096)
	target := p.Add(2048)
	m.Arena.StoreAddr(p, target)

	m.PointerPrefetch = true
	m.LoadAddr(p) // loads target's address, prefetching its block
	m.Tick(200)
	lat := m.Cache.Access(target, 4, cache.Load)
	full := int64(1 + 6 + 64)
	if lat >= full {
		t.Fatalf("pointer prefetch hid nothing: %d cycles", lat)
	}
	// Second touch is an ordinary hit.
	if lat2 := m.Cache.Access(target, 4, cache.Load); lat2 != 1 {
		t.Fatalf("second touch cost %d, want 1", lat2)
	}
}

func TestPointerPrefetchROBCap(t *testing.T) {
	// Even with unlimited lead time, a hardware pointer prefetch
	// may hide at most the ROB lead (16 cycles) of the miss.
	cfg := cache.ScaledHierarchy(16)
	cfg.TLB.Entries = 0
	m := New(cfg)
	p := m.Arena.Sbrk(8192)
	target := p.Add(4096)
	m.Arena.StoreAddr(p, target)

	m.PointerPrefetch = true
	m.LoadAddr(p)
	m.Tick(10000) // far more lead than the ROB window allows
	lat := m.Cache.Access(target, 4, cache.Load)
	full := int64(1 + 6 + 64) // scaled paper machine latencies
	want := full - 16
	if lat != want {
		t.Fatalf("capped prefetch latency = %d, want %d", lat, want)
	}
}

func TestScaledGeometry(t *testing.T) {
	m := NewScaled(16)
	if m.Cache.Level(1).BlockSize != 64 {
		t.Fatal("scaling must preserve block size")
	}
	if m.Cache.Level(1).Size != (1<<20)/16 {
		t.Fatalf("L2 = %d, want %d", m.Cache.Level(1).Size, (1<<20)/16)
	}
}
