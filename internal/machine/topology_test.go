package machine

import (
	"testing"

	"ccl/internal/cache"
	"ccl/internal/coherence"
	"ccl/internal/memsys"
)

// smallTopology is a 2-core topology small enough that eviction and
// sharing effects show up within a few hundred accesses.
func smallTopology(cores int) TopologyConfig {
	return TopologyConfig{
		Cores: cores,
		Private: cache.Config{
			Levels: []cache.LevelConfig{
				{Name: "L1", Size: 1 << 10, Assoc: 1, BlockSize: 16, Latency: 1, WriteBack: true},
			},
			MemLatency: 8,
		},
		LLC:        cache.LevelConfig{Name: "LLC", Size: 8 << 10, Assoc: 4, BlockSize: 64, Latency: 12, WriteBack: true},
		MemLatency: 60,
	}
}

func TestTopologyConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TopologyConfig)
		ok     bool
	}{
		{"default 1-core", func(c *TopologyConfig) { c.Cores = 1 }, true},
		{"default 4-core", func(c *TopologyConfig) { c.Cores = 4 }, true},
		{"max cores", func(c *TopologyConfig) { c.Cores = 64 }, true},
		{"zero cores", func(c *TopologyConfig) { c.Cores = 0 }, false},
		{"negative cores", func(c *TopologyConfig) { c.Cores = -2 }, false},
		{"too many cores", func(c *TopologyConfig) { c.Cores = 65 }, false},
		{"no private levels", func(c *TopologyConfig) { c.Private.Levels = nil }, false},
		{"non-pow2 private block", func(c *TopologyConfig) { c.Private.Levels[0].BlockSize = 24 }, false},
		{"private block wider than granule", func(c *TopologyConfig) {
			c.Private.Levels[0].BlockSize = 128
			c.Private.Levels[0].Size = 2 << 10
		}, false},
		{"bad LLC size", func(c *TopologyConfig) { c.LLC.Size = 100 }, false},
		{"zero mem latency", func(c *TopologyConfig) { c.MemLatency = 0 }, false},
		{"negative snoop latency", func(c *TopologyConfig) { c.Coherence.SnoopLatency = -3 }, false},
		{"hop defaulted", func(c *TopologyConfig) { c.Private.MemLatency = 0 }, true},
		{"private TLB", func(c *TopologyConfig) {
			c.Private.TLB = cache.TLBConfig{Entries: 64, PageSize: 8 << 10, Penalty: 30}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallTopology(2)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("invalid config accepted: %+v", cfg)
			}
		})
	}
}

func TestNewTopologyGeometry(t *testing.T) {
	cases := []struct {
		cores int
	}{{1}, {2}, {4}, {8}}
	for _, tc := range cases {
		tp := NewTopology(smallTopology(tc.cores))
		if tp.Cores() != tc.cores {
			t.Fatalf("Cores() = %d, want %d", tp.Cores(), tc.cores)
		}
		if tp.Directory().Cores() != tc.cores {
			t.Fatalf("directory cores = %d, want %d", tp.Directory().Cores(), tc.cores)
		}
		// The coherence granule is forced to the LLC block size.
		if got := tp.Directory().Config().BlockSize; got != 64 {
			t.Fatalf("granule = %d, want 64", got)
		}
		// Each core has its own private hierarchy; the LLC is shared.
		for i := 0; i < tc.cores; i++ {
			if tp.PrivateCache(i) == nil {
				t.Fatalf("core %d has no private cache", i)
			}
			for j := i + 1; j < tc.cores; j++ {
				if tp.PrivateCache(i) == tp.PrivateCache(j) {
					t.Fatalf("cores %d and %d share a private cache", i, j)
				}
			}
		}
		if tp.LLC() == nil || tp.LLC() == tp.PrivateCache(0) {
			t.Fatal("LLC missing or aliased to a private cache")
		}
	}
}

func TestNewTopologyPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopology accepted an invalid config")
		}
	}()
	cfg := smallTopology(2)
	cfg.Cores = 0
	NewTopology(cfg)
}

func TestDefaultTopologyConfig(t *testing.T) {
	cfg := DefaultTopologyConfig(4)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.LLC.BlockSize != 64 {
		t.Fatalf("default granule %d, want 64", cfg.LLC.BlockSize)
	}
}

func TestTopologySharedMemory(t *testing.T) {
	tp := NewTopology(smallTopology(2))
	tp.Arena.AlignBrk(8)
	a := tp.Arena.Sbrk(64)
	tp.Core(0).StoreInt(a, 42)
	if got := tp.Core(1).LoadInt(a); got != 42 {
		t.Fatalf("core 1 read %d, want 42 (arena not shared?)", got)
	}
}

func TestTopologyCoherenceFlow(t *testing.T) {
	tp := NewTopology(smallTopology(2))
	tp.Arena.AlignBrk(64)
	a := tp.Arena.Sbrk(64)
	c0, c1 := tp.Core(0), tp.Core(1)

	// Core 0 writes: RFO, Modified, dirty private line.
	c0.StoreInt(a, 1)
	if st := tp.Directory().State(0, a); st != coherence.Modified {
		t.Fatalf("writer state %v, want M", st)
	}

	// Core 1 reads: forced writeback, both Shared.
	if got := c1.LoadInt(a); got != 1 {
		t.Fatalf("core 1 read %d", got)
	}
	if st := tp.Directory().State(0, a); st != coherence.Shared {
		t.Fatalf("post-read writer state %v, want S", st)
	}
	if tp.Directory().Stats().ForcedWritebacks != 1 {
		t.Fatalf("forced writebacks %d, want 1", tp.Directory().Stats().ForcedWritebacks)
	}

	// Core 1 writes: upgrade invalidates core 0's copy.
	c1.StoreInt(a, 2)
	if tp.PrivateCache(0).Contains(0, a) {
		t.Fatal("core 0 copy survived the invalidation")
	}
	// Core 0's reload is a coherence miss, observable in detail.
	var buf []AccessDetail
	_, buf = tp.AccessDetailed(0, a, 8, cache.Load, buf[:0])
	if len(buf) != 1 || !buf[0].Coh.CoherenceMiss {
		t.Fatalf("reload detail %+v, want coherence miss", buf)
	}
	if !buf[0].PrivateMiss {
		t.Fatal("reload after invalidation hit the private cache")
	}
}

func TestTopologyGranuleSplit(t *testing.T) {
	tp := NewTopology(smallTopology(1))
	// A 16-byte access starting 8 bytes before a granule boundary
	// must produce two directory transactions.
	var buf []AccessDetail
	_, buf = tp.AccessDetailed(0, memsys.Addr(64-8), 16, cache.Load, buf)
	if len(buf) != 2 {
		t.Fatalf("granule-spanning access produced %d details, want 2", len(buf))
	}
	if buf[0].Size != 8 || buf[1].Size != 8 {
		t.Fatalf("split sizes %d + %d, want 8 + 8", buf[0].Size, buf[1].Size)
	}
	if buf[1].Addr != 64 {
		t.Fatalf("second granule at %v, want 64", buf[1].Addr)
	}
}

func TestTopologyCycleAccounting(t *testing.T) {
	tp := NewTopology(smallTopology(2))
	n := tp.CoreCycles(0)
	if n != 0 {
		t.Fatalf("fresh core has %d cycles", n)
	}
	tp.Access(0, 0x40, 8, cache.Load)
	if tp.CoreCycles(0) <= 0 {
		t.Fatal("access charged no cycles")
	}
	// Cold miss pays private chain + hop + LLC + DRAM + snoop.
	want := int64(1+8) + int64(12+60) + tp.Directory().Config().SnoopLatency
	if tp.CoreCycles(0) != want {
		t.Fatalf("cold miss cycles = %d, want %d", tp.CoreCycles(0), want)
	}
	tp.Tick(0, 100)
	if got := tp.CoreCycles(0); got != want+100 {
		t.Fatalf("post-tick cycles = %d, want %d", got, want+100)
	}
	if tp.CoreCycles(1) != 0 {
		t.Fatal("tick leaked to the other core")
	}
	if tp.MaxCycles() != want+100 {
		t.Fatalf("MaxCycles = %d, want %d", tp.MaxCycles(), want+100)
	}
}

func TestTopologyRejectsPrefetch(t *testing.T) {
	tp := NewTopology(smallTopology(1))
	defer func() {
		if recover() == nil {
			t.Fatal("prefetch access did not panic")
		}
	}()
	tp.Access(0, 0, 8, cache.PrefetchRead)
}

// Determinism: the same interleaved access sequence yields identical
// cycle counts and directory stats across runs.
func TestTopologyDeterminism(t *testing.T) {
	run := func() (int64, coherence.Stats) {
		tp := NewTopology(smallTopology(4))
		for i := 0; i < 2000; i++ {
			core := i % 4
			addr := memsys.Addr((i * 24) % 2048)
			kind := cache.Load
			if i%3 == 0 {
				kind = cache.Store
			}
			tp.Access(core, addr, 8, kind)
		}
		return tp.MaxCycles(), tp.Directory().Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("runs diverged: %d/%+v vs %d/%+v", c1, s1, c2, s2)
	}
}

// False sharing in miniature: two cores hammering adjacent words in
// one granule generate invalidations; padding them apart stops it.
func TestTopologyFalseSharing(t *testing.T) {
	run := func(stride int64) coherence.Stats {
		tp := NewTopology(smallTopology(2))
		tp.Arena.AlignBrk(64)
		a := tp.Arena.Sbrk(256)
		for i := 0; i < 500; i++ {
			core := i % 2
			slot := a.Add(int64(core) * stride)
			tp.Core(core).StoreInt(slot, int64(i))
		}
		return tp.Directory().Stats()
	}
	packed := run(8)
	padded := run(64)
	if packed.CoherenceMisses == 0 {
		t.Fatal("packed layout produced no coherence misses")
	}
	if padded.CoherenceMisses != 0 {
		t.Fatalf("padded layout produced %d coherence misses", padded.CoherenceMisses)
	}
	if packed.CopiesInvalidated <= padded.CopiesInvalidated {
		t.Fatalf("invalidations: packed %d <= padded %d",
			packed.CopiesInvalidated, padded.CopiesInvalidated)
	}
}
