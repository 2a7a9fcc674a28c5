package cache

import (
	"testing"

	"ccl/internal/memsys"
)

// TestAccessNoAllocs pins the tentpole property of the demand path: a
// demand access never allocates, on any of the named hierarchies. The
// access pattern mixes block-spanning loads and stores across a window
// larger than every cache so hits, misses, evictions, TLB misses, and
// the split path are all exercised.
func TestAccessNoAllocs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"paper", PaperHierarchy()},
		{"scaled", ScaledHierarchy(16)},
		{"rsim", RSIMHierarchy()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := New(tc.cfg)
			var addr memsys.Addr
			allocs := testing.AllocsPerRun(10_000, func() {
				h.Access(addr, 8, Load)
				h.Access(addr+3, 16, Store)
				// Stride past a block and a page boundary over time.
				addr = (addr + 4093) % (4 << 20)
			})
			if allocs != 0 {
				t.Fatalf("Access allocated %v times per run, want 0", allocs)
			}
		})
	}
}

// TestPrefetchNoAllocs covers the software- and pointer-prefetch
// install paths, which share the demand path's state but run through
// install rather than installProbed.
func TestPrefetchNoAllocs(t *testing.T) {
	h := New(RSIMHierarchy())
	var addr memsys.Addr
	allocs := testing.AllocsPerRun(10_000, func() {
		h.Prefetch(addr)
		h.PrefetchFree(addr + 512)
		h.Access(addr+1024, 8, Load)
		addr = (addr + 8191) % (4 << 20)
	})
	if allocs != 0 {
		t.Fatalf("prefetch paths allocated %v times per run, want 0", allocs)
	}
}
