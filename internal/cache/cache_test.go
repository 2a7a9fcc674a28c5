package cache

import (
	"fmt"
	"strings"
	"testing"

	"ccl/internal/memsys"
)

// tiny returns a small two-level hierarchy that is easy to reason
// about: 4-set direct-mapped L1 with 16 B blocks (256 B), 8-set
// direct-mapped L2 with 64 B blocks (512 B), paper latencies.
func tiny() *Hierarchy {
	return New(Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 256, Assoc: 1, BlockSize: 16, Latency: 1},
			{Name: "L2", Size: 512, Assoc: 1, BlockSize: 64, Latency: 6, WriteBack: true},
		},
		MemLatency: 64,
	})
}

func TestConfigValidate(t *testing.T) {
	good := PaperHierarchy()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := []Config{
		{MemLatency: 10},
		{Levels: []LevelConfig{{Size: 0, Assoc: 1, BlockSize: 16}}, MemLatency: 10},
		{Levels: []LevelConfig{{Size: 64, Assoc: 1, BlockSize: 24}}, MemLatency: 10},
		{Levels: []LevelConfig{{Size: 100, Assoc: 1, BlockSize: 16}}, MemLatency: 10},
		{Levels: []LevelConfig{{Size: 256, Assoc: 1, BlockSize: 16}}, MemLatency: 0},
		// BlockSize*Assoc overflows to 0: must be an error, not a
		// divide-by-zero panic.
		{Levels: []LevelConfig{{Size: 1 << 10, Assoc: 1 << 60, BlockSize: 16}}, MemLatency: 10},
		{Levels: []LevelConfig{{Size: 1 << 10, Assoc: 1, BlockSize: 16, Latency: -5}}, MemLatency: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestPaperGeometry(t *testing.T) {
	c := PaperHierarchy()
	if got := c.Levels[0].Sets(); got != 1024 {
		t.Errorf("L1 sets = %d, want 1024 (16KB / 16B direct-mapped)", got)
	}
	if got := c.Levels[1].Sets(); got != 16384 {
		t.Errorf("L2 sets = %d, want 16384 (1MB / 64B direct-mapped)", got)
	}
	r := RSIMHierarchy()
	if got := r.Levels[1].Sets(); got != 1024 {
		t.Errorf("RSIM L2 sets = %d, want 1024 (256KB 2-way 128B)", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny()
	addr := memsys.Addr(0x1000)
	// Cold: L1 miss + L2 miss + memory = 1 + 6 + 64.
	if got := h.Access(addr, 8, Load); got != 71 {
		t.Fatalf("cold access latency = %d, want 71", got)
	}
	// Hot: L1 hit.
	if got := h.Access(addr, 8, Load); got != 1 {
		t.Fatalf("hot access latency = %d, want 1", got)
	}
	s := h.Stats()
	if s.Levels[0].Misses != 1 || s.Levels[0].Hits != 1 {
		t.Errorf("L1 stats = %+v", s.Levels[0])
	}
	if s.MemAccesses != 1 {
		t.Errorf("MemAccesses = %d, want 1", s.MemAccesses)
	}
	if s.LoadStallCycles != 70 {
		t.Errorf("LoadStallCycles = %d, want 70", s.LoadStallCycles)
	}
	if s.L1HitCycles != 2 {
		t.Errorf("L1HitCycles = %d, want 2", s.L1HitCycles)
	}
}

func TestSpatialLocalityWithinBlock(t *testing.T) {
	h := tiny()
	// Two addresses in the same 16 B L1 block: second is a pure hit.
	h.Access(0x1000, 8, Load)
	if got := h.Access(0x1008, 8, Load); got != 1 {
		t.Fatalf("same-block access latency = %d, want 1", got)
	}
}

func TestL2BlockBringsNeighborL1Misses(t *testing.T) {
	h := tiny()
	h.Access(0x1000, 8, Load) // fills L2's 64 B block, L1's 16 B block
	// 0x1010 is a different L1 block but the same L2 block.
	if got := h.Access(0x1010, 8, Load); got != 1+6 {
		t.Fatalf("L2-hit latency = %d, want 7", got)
	}
	s := h.Stats()
	if s.Levels[1].Hits != 1 {
		t.Errorf("L2 hits = %d, want 1", s.Levels[1].Hits)
	}
}

func TestConflictMissesDirectMapped(t *testing.T) {
	h := tiny()
	// L1 has 4 sets x 16 B: addresses 64 B apart map to the same set.
	a := memsys.Addr(0x1000)
	b := a.Add(256) // same L1 set (4 sets * 16 B = 64 B period; 256 is a multiple) and same L2 set (8*64=512? 256 isn't; L2 differs)
	h.Access(a, 8, Load)
	h.Access(b, 8, Load)
	// a was evicted from L1 by b (same set, direct-mapped).
	if h.Contains(0, a) {
		t.Fatal("a still in L1 after conflicting fill")
	}
	preMisses := h.Stats().Levels[0].Misses
	h.Access(a, 8, Load)
	if got := h.Stats().Levels[0].Misses; got != preMisses+1 {
		t.Fatalf("conflict access L1 misses = %d, want %d", got, preMisses+1)
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	twoWay := New(Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 512, Assoc: 2, BlockSize: 16, Latency: 1},
		},
		MemLatency: 64,
	})
	// 16 sets; two addresses one L1-period apart co-reside in a set.
	period := int64(16 * 16)
	a := memsys.Addr(0x1000)
	b := a.Add(period)
	twoWay.Access(a, 8, Load)
	twoWay.Access(b, 8, Load)
	if !twoWay.Contains(0, a) || !twoWay.Contains(0, b) {
		t.Fatal("2-way set should hold both conflicting blocks")
	}
	// A third block in the set evicts the LRU one (a).
	twoWay.Access(a.Add(2*period), 8, Load)
	if twoWay.Contains(0, a) {
		t.Fatal("LRU block a should have been evicted")
	}
	if !twoWay.Contains(0, b) {
		t.Fatal("MRU block b should have survived")
	}
}

func TestLRUUpdatedOnHit(t *testing.T) {
	twoWay := New(Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 512, Assoc: 2, BlockSize: 16, Latency: 1},
		},
		MemLatency: 64,
	})
	period := int64(16 * 16)
	a := memsys.Addr(0x1000)
	b := a.Add(period)
	twoWay.Access(a, 8, Load)
	twoWay.Access(b, 8, Load)
	twoWay.Access(a, 8, Load) // touch a: b becomes LRU
	twoWay.Access(a.Add(2*period), 8, Load)
	if !twoWay.Contains(0, a) {
		t.Fatal("recently-touched a was evicted")
	}
	if twoWay.Contains(0, b) {
		t.Fatal("LRU b survived eviction")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	h := tiny()
	a := memsys.Addr(0x1000)
	h.Access(a, 8, Store) // dirty in write-back L2
	// Evict a's L2 set (8 sets x 64 B: period 512 B).
	h.Access(a.Add(512), 8, Load)
	s := h.Stats()
	if s.Levels[1].Writebacks != 1 {
		t.Fatalf("L2 writebacks = %d, want 1", s.Levels[1].Writebacks)
	}
	// Write-through L1 never writes back.
	if s.Levels[0].Writebacks != 0 {
		t.Fatalf("L1 (write-through) writebacks = %d, want 0", s.Levels[0].Writebacks)
	}
}

func TestStoreStallAttribution(t *testing.T) {
	h := tiny()
	h.Access(0x1000, 8, Store)
	s := h.Stats()
	if s.StoreStall != 70 {
		t.Errorf("StoreStall = %d, want 70", s.StoreStall)
	}
	if s.LoadStallCycles != 0 {
		t.Errorf("LoadStallCycles = %d, want 0", s.LoadStallCycles)
	}
}

func TestAccessSpanningBlocks(t *testing.T) {
	h := tiny()
	// 8 bytes starting 4 bytes before a 16 B boundary touch 2 blocks.
	start := memsys.Addr(0x1000 + 12)
	h.Access(start, 8, Load)
	if h.Stats().Levels[0].Accesses != 2 {
		t.Fatalf("spanning access counted %d L1 accesses, want 2", h.Stats().Levels[0].Accesses)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	h := tiny()
	a := memsys.Addr(0x2000)
	h.Prefetch(a)
	// Enough work to cover the 71-cycle fill.
	h.Tick(200)
	if got := h.Access(a, 8, Load); got != 1 {
		t.Fatalf("post-prefetch access latency = %d, want 1 (fully hidden)", got)
	}
	s := h.Stats()
	if s.Levels[0].PrefetchHit != 1 {
		t.Errorf("PrefetchHit = %d, want 1", s.Levels[0].PrefetchHit)
	}
	if s.PrefetchIssue != 1 {
		t.Errorf("PrefetchIssue cycles = %d, want 1", s.PrefetchIssue)
	}
}

func TestLatePrefetchPartiallyHides(t *testing.T) {
	h := tiny()
	a := memsys.Addr(0x2000)
	h.Prefetch(a)
	h.Tick(30) // fill needs 71; 30 covered
	got := h.Access(a, 8, Load)
	if got <= 1 || got >= 71 {
		t.Fatalf("late-prefetch latency = %d, want within (1, 71)", got)
	}
	if h.Stats().Levels[0].LateHits != 1 {
		t.Errorf("LateHits = %d, want 1", h.Stats().Levels[0].LateHits)
	}
}

func TestUselessPrefetchCostsIssueOnly(t *testing.T) {
	h := tiny()
	a := memsys.Addr(0x2000)
	h.Access(a, 8, Load)
	before := h.Now()
	h.Prefetch(a) // already resident
	if h.Now()-before != 1 {
		t.Fatalf("resident prefetch advanced clock by %d, want 1", h.Now()-before)
	}
}

func TestTickAndReset(t *testing.T) {
	h := tiny()
	h.Tick(10)
	h.Access(0x1000, 8, Load)
	if h.Stats().BusyCycles != 10 {
		t.Errorf("BusyCycles = %d, want 10", h.Stats().BusyCycles)
	}
	if h.Stats().TotalCycles() != 10+71 {
		t.Errorf("TotalCycles = %d, want 81", h.Stats().TotalCycles())
	}
	h.ResetStats()
	if h.Stats().TotalCycles() != 0 {
		t.Error("ResetStats did not zero counters")
	}
	// Contents survive reset.
	if got := h.Access(0x1000, 8, Load); got != 1 {
		t.Errorf("post-reset access latency = %d, want 1 (contents kept)", got)
	}
}

func TestTickNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Tick(-1) did not panic")
		}
	}()
	tiny().Tick(-1)
}

func TestFlushInvalidates(t *testing.T) {
	h := tiny()
	h.Access(0x1000, 8, Load)
	h.Flush()
	if h.Contains(0, 0x1000) || h.Contains(1, 0x1000) {
		t.Fatal("Flush left blocks resident")
	}
}

func TestMissRateHelper(t *testing.T) {
	var s LevelStats
	if s.MissRate() != 0 {
		t.Error("idle MissRate should be 0")
	}
	s = LevelStats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", s.MissRate())
	}
}

func TestScaledHierarchyFloors(t *testing.T) {
	c := ScaledHierarchy(1 << 20) // absurd factor: floor kicks in
	for _, l := range c.Levels {
		if err := l.Validate(); err != nil {
			t.Fatalf("scaled level invalid: %v", err)
		}
		if l.Size < l.BlockSize*int64(l.Assoc) {
			t.Fatalf("level %s scaled below one set", l.Name)
		}
	}
	if got := ScaledHierarchy(1); got.Levels[1].Size != PaperHierarchy().Levels[1].Size {
		t.Error("factor 1 should be identity")
	}
}

func TestAccessKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || PrefetchRead.String() != "prefetch" {
		t.Error("AccessKind.String broken")
	}
	if AccessKind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestThreeLevelHierarchy(t *testing.T) {
	h := New(Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 256, Assoc: 1, BlockSize: 16, Latency: 1},
			{Name: "L2", Size: 1024, Assoc: 2, BlockSize: 32, Latency: 4, WriteBack: true},
			{Name: "L3", Size: 4096, Assoc: 4, BlockSize: 64, Latency: 10, WriteBack: true},
		},
		MemLatency: 100,
	})
	a := memsys.Addr(0x4000)
	if got := h.Access(a, 8, Load); got != 1+4+10+100 {
		t.Fatalf("cold 3-level access = %d, want 115", got)
	}
	if got := h.Access(a, 8, Load); got != 1 {
		t.Fatalf("hot access = %d, want 1", got)
	}
	// Evict from L1 only (same L1 set, different L2/L3 sets);
	// period of L1 = 16 sets x 16 B = 256 B.
	h.Access(a.Add(256*7), 8, Load)
	// L1 has 16 sets; 256*7 = 1792: same L1 set. L2: 16 sets x 32 = 512 period -> different set? 1792/512=3.5 -> set differs.
	if got := h.Access(a, 8, Load); got != 1 && got != 1+4 {
		t.Fatalf("post-conflict access = %d, want L1 hit or L2 hit", got)
	}
	if h.Stats().Levels[2].Accesses == 0 {
		t.Fatal("L3 never consulted")
	}
}

func TestTLBBasics(t *testing.T) {
	cfg := Config{
		Levels:     []LevelConfig{{Name: "L1", Size: 256, Assoc: 1, BlockSize: 16, Latency: 1}},
		MemLatency: 10,
		TLB:        TLBConfig{Entries: 2, PageSize: 4096, Penalty: 30},
	}
	h := New(cfg)
	// First touch of a page: TLB miss penalty on top of the memory miss.
	if got := h.Access(0x1000, 8, Load); got != 1+10+30 {
		t.Fatalf("TLB-cold access = %d, want 41", got)
	}
	// Same page: no TLB penalty.
	if got := h.Access(0x1000+16, 8, Load); got != 1+10 {
		t.Fatalf("TLB-warm access = %d, want 11", got)
	}
	// Two more pages evict the first (2-entry LRU).
	h.Access(0x2000, 8, Load)
	h.Access(0x3000, 8, Load)
	if got := h.Access(0x1000+32, 8, Load); got != 1+10+30 {
		t.Fatalf("evicted-page access = %d, want 41", got)
	}
	s := h.Stats()
	if s.TLBMisses != 4 || s.TLBAccesses == 0 {
		t.Fatalf("TLB stats: %d misses / %d accesses", s.TLBMisses, s.TLBAccesses)
	}
	// Flush clears the TLB too.
	h.Flush()
	if got := h.Access(0x1000, 8, Load); got != 1+10+30 {
		t.Fatalf("post-flush access = %d, want 41", got)
	}
}

func TestPrefetchDroppedOnTLBMiss(t *testing.T) {
	cfg := Config{
		Levels:     []LevelConfig{{Name: "L1", Size: 256, Assoc: 1, BlockSize: 16, Latency: 1}},
		MemLatency: 50,
		TLB:        TLBConfig{Entries: 4, PageSize: 4096, Penalty: 30},
	}
	h := New(cfg)
	h.Prefetch(0x9000) // page never touched: prefetch dropped
	h.Tick(500)
	if h.Contains(0, 0x9000) {
		t.Fatal("prefetch to an unmapped-TLB page should be dropped")
	}
	// Touch the page, then prefetching works.
	h.Access(0x9000, 8, Load)
	h.Prefetch(0x9040)
	if !h.Contains(0, 0x9040) {
		t.Fatal("prefetch on a TLB-resident page should fill")
	}
	// The probe does not refresh recency: with page 9 the LRU of a
	// full TLB, a prefetch into it must leave it the next victim.
	h.Access(0xA000, 8, Load)
	h.Access(0xB000, 8, Load)
	h.Access(0xC000, 8, Load)
	h.Prefetch(0x9080)
	h.Access(0xD000, 8, Load) // evicts page 9, not page A
	misses := h.Stats().TLBMisses
	if h.Access(0xA008, 8, Load); h.Stats().TLBMisses != misses {
		t.Fatal("page A was evicted: the prefetch probe refreshed page 9")
	}
	if h.Access(0x9000, 8, Load); h.Stats().TLBMisses != misses+1 {
		t.Fatal("page 9 still mapped after it should have been evicted")
	}
}

// TestHierarchyConfigAccessors: a hierarchy reports back the
// configuration it was built from, unchanged — New fills in no
// defaults — and its levels by index, the last one being the level
// ccmalloc and ccmorph target.
func TestHierarchyConfigAccessors(t *testing.T) {
	for _, cfg := range []Config{PaperHierarchy(), ScaledHierarchy(16), RSIMHierarchy()} {
		h := New(cfg)
		got := h.Config()
		if len(got.Levels) != len(cfg.Levels) || got.MemLatency != cfg.MemLatency || got.TLB != cfg.TLB {
			t.Fatalf("Config() = %+v, built from %+v", got, cfg)
		}
		for i, lc := range cfg.Levels {
			if got.Levels[i] != lc || h.Level(i) != lc {
				t.Fatalf("level %d: Config() %+v, Level %+v, built from %+v", i, got.Levels[i], h.Level(i), lc)
			}
		}
		if last := cfg.Levels[len(cfg.Levels)-1]; h.LastLevel() != last {
			t.Fatalf("LastLevel() = %+v, want %+v", h.LastLevel(), last)
		}
	}
}

func TestTotalCycles(t *testing.T) {
	s := Stats{
		BusyCycles:      100,
		L1HitCycles:     10,
		LoadStallCycles: 70,
		StoreStall:      35,
		PrefetchIssue:   5,
	}
	if got := s.TotalCycles(); got != 220 {
		t.Fatalf("TotalCycles = %d, want 220 (sum of the five cycle buckets)", got)
	}
	// Accesses that stall must show up; Tick-only time must too.
	h := tiny()
	h.Tick(9)
	h.Access(0x1000, 8, Load)  // 71: 1 L1-hit cycle + 70 load stall
	h.Access(0x1000, 8, Store) // 1: L1 hit (write-through charges no stall on hit)
	if got := h.Stats().TotalCycles(); got != 9+71+1 {
		t.Fatalf("TotalCycles = %d, want 81", got)
	}
	if h.Stats().TotalCycles() != h.Now() {
		t.Fatal("TotalCycles disagrees with the clock")
	}
}

// recObserver records every callback for the observer tests.
type recObserver struct {
	accesses []string
	evicts   []string
	fills    []string
	invals   []string
}

func (r *recObserver) OnAccess(addr memsys.Addr, kind AccessKind, hitLevel int) {
	r.accesses = append(r.accesses, fmt.Sprintf("%s@%#x->%d", kind, int64(addr), hitLevel))
}
func (r *recObserver) OnEvict(level int, addr memsys.Addr, dirty bool) {
	r.evicts = append(r.evicts, fmt.Sprintf("L%d@%#x dirty=%v", level+1, int64(addr), dirty))
}
func (r *recObserver) OnFill(level int, addr memsys.Addr, prefetch bool) {
	r.fills = append(r.fills, fmt.Sprintf("L%d@%#x pf=%v", level+1, int64(addr), prefetch))
}
func (r *recObserver) OnInvalidate(addr memsys.Addr, span int64) {
	r.invals = append(r.invals, fmt.Sprintf("%#x+%d", int64(addr), span))
}

func TestObserverCallbacks(t *testing.T) {
	h := tiny()
	rec := &recObserver{}
	h.SetObserver(rec)

	h.Access(0x1000, 8, Load) // cold: misses both levels, fills both
	want := []string{"load@0x1000->-1"}
	if len(rec.accesses) != 1 || rec.accesses[0] != want[0] {
		t.Fatalf("accesses = %v, want %v", rec.accesses, want)
	}
	if len(rec.fills) != 2 {
		t.Fatalf("cold access filled %d blocks, want 2 (one per level): %v", len(rec.fills), rec.fills)
	}

	h.Access(0x1000, 8, Load) // L1 hit
	if got := rec.accesses[len(rec.accesses)-1]; got != "load@0x1000->0" {
		t.Fatalf("hit access = %q, want load@0x1000->0", got)
	}

	// Evict 0x1000 from L1: tiny's L1 period is 256 B.
	h.Access(0x1100, 8, Load)
	found := false
	for _, e := range rec.evicts {
		if e == "L1@0x1000 dirty=false" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected L1 eviction of 0x1000, got %v", rec.evicts)
	}

	// Prefetch fills are flagged.
	rec.fills = nil
	h.Prefetch(0x5000)
	if len(rec.fills) == 0 {
		t.Fatal("prefetch produced no fills")
	}
	for _, f := range rec.fills {
		if !strings.HasSuffix(f, "pf=true") {
			t.Fatalf("prefetch fill not flagged: %q", f)
		}
	}

	// Detaching stops the stream.
	h.SetObserver(nil)
	n := len(rec.accesses)
	h.Access(0x1000, 8, Load)
	if len(rec.accesses) != n {
		t.Fatal("detached observer still invoked")
	}
}

func TestObserverDirtyEviction(t *testing.T) {
	h := tiny()
	rec := &recObserver{}
	h.SetObserver(rec)
	h.Access(0x1000, 8, Store) // dirty in write-back L2
	h.Access(0x1000+512, 8, Load)
	found := false
	for _, e := range rec.evicts {
		if e == "L2@0x1000 dirty=true" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected dirty L2 eviction of 0x1000, got %v", rec.evicts)
	}
}

// TestBlocksCoveringMinBlockSize: a spanning access must be split at
// the hierarchy's smallest block size, not L1's, and the first
// sub-access must keep its unaligned address. With 8 B L2 blocks
// under a 16 B L1, the old L1-granularity split simulated a [8,24)
// access as a single access to the L1 block base 0 — filling the L2
// block [0,8) that the access never touches and skipping [8,16).
// Found by the differential oracle (internal/oracle).
func TestBlocksCoveringMinBlockSize(t *testing.T) {
	h := New(Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 64, Assoc: 1, BlockSize: 16, Latency: 1},
			{Name: "L2", Size: 64, Assoc: 1, BlockSize: 8, Latency: 2},
		},
		MemLatency: 10,
	})
	h.Access(8, 16, Load) // covers L1 blocks {0,16}, L2 blocks {8,16}
	s := h.Stats().Levels
	if s[0].Accesses != 2 || s[1].Accesses != 2 {
		t.Fatalf("accesses L1=%d L2=%d, want 2/2 (split at 8 B granularity)",
			s[0].Accesses, s[1].Accesses)
	}
	if !h.Contains(1, 8) || !h.Contains(1, 16) {
		t.Fatal("both touched 8 B L2 blocks of [8,24) should be resident")
	}
	if h.Contains(1, 0) {
		t.Fatal("L2 block [0,8) was filled but never accessed")
	}
	// The first sub-access keeps its unaligned address (an offset
	// within the smallest block cannot change any level's block); the
	// rest are aligned to the minimum block size. The observer sees
	// one OnAccess per sub-access, so it pins the split addresses.
	h2 := New(Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 64, Assoc: 1, BlockSize: 16, Latency: 1},
		},
		MemLatency: 10,
	})
	rec := &recObserver{}
	h2.SetObserver(rec)
	h2.Access(3, 17, Load)
	want := []string{"load@0x3->-1", "load@0x10->-1"}
	if len(rec.accesses) != len(want) || rec.accesses[0] != want[0] || rec.accesses[1] != want[1] {
		t.Fatalf("Access(3, 17) sub-accesses = %v, want %v", rec.accesses, want)
	}
}
