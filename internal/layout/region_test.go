package layout

import (
	"errors"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// TestRegionHotBudget pins the hot budget: HotSets × Assoc ×
// BlockSize bytes. A spent budget never refuses an explicitly hot
// extent, and an uncolored region has no budget and nothing hot.
func TestRegionHotBudget(t *testing.T) {
	for _, tc := range []struct {
		g      Geometry
		budget int64
	}{
		{geom16, 8 * 64},
		{Geometry{Sets: 16, Assoc: 2, BlockSize: 64}, 2 * 8 * 64},
	} {
		r := must(NewRegion(memsys.NewArena(0), tc.g, 0.5))
		if r.HotLeft() != tc.budget {
			t.Fatalf("%+v: HotLeft = %d, want %d", tc.g, r.HotLeft(), tc.budget)
		}
		for r.HotLeft() > 0 {
			must(r.Alloc(64, true))
		}
		// A spent budget never refuses an explicitly hot extent: it
		// still lands hot and HotLeft stays at zero.
		col, _ := r.Coloring()
		if a := must(r.Alloc(64, true)); !col.IsHot(a) || r.HotLeft() != 0 {
			t.Fatalf("%+v: hot Alloc past the budget at %v (hot=%v), HotLeft %d", tc.g, a, col.IsHot(a), r.HotLeft())
		}
	}
	// Uncolored: no budget, nothing is ever hot.
	r := must(NewRegion(memsys.NewArena(0), geom16, 0))
	if _, ok := r.Coloring(); ok || r.HotLeft() != 0 {
		t.Fatalf("uncolored region: colored=%v HotLeft=%d", ok, r.HotLeft())
	}
	if _, h, err := r.Pack(20, true); err != nil || h {
		t.Fatalf("uncolored Pack = hot %v, %v", h, err)
	}
	if r.Geometry() != geom16 {
		t.Fatalf("Geometry = %+v, want %+v", r.Geometry(), geom16)
	}
}

// packHot packs n 20-byte nodes hot-wanted into r and returns how
// many landed hot and the distinct blocks the hot ones occupy.
func packHot(t *testing.T, r *Region, n int) (hot int, blocks map[int64]bool) {
	t.Helper()
	bs := r.Geometry().BlockSize
	blocks = map[int64]bool{}
	for i := 0; i < n; i++ {
		a, h, err := r.Pack(20, true)
		if err != nil {
			t.Fatal(err)
		}
		if h {
			hot++
			blocks[int64(a)/bs] = true
		}
	}
	return hot, blocks
}

// TestHotCapacityNodes: the hot budget holds §5.3's c/2 × ⌊b/e⌋ × a
// packed nodes. 20-byte nodes land 3 per 64-byte block in the 8 hot
// sets of geom16 at one half — 24 nodes — and twice that 2-way.
func TestHotCapacityNodes(t *testing.T) {
	for _, tc := range []struct {
		g        Geometry
		hotNodes int
	}{
		{geom16, 24},
		{Geometry{Sets: 16, Assoc: 2, BlockSize: 64}, 48},
	} {
		r := must(NewRegion(memsys.NewArena(0), tc.g, 0.5))
		if hot, _ := packHot(t, r, 4*tc.hotNodes); hot != tc.hotNodes || r.HotLeft() != 0 {
			t.Fatalf("%+v: %d nodes packed hot (HotLeft %d), want %d (0)", tc.g, hot, r.HotLeft(), tc.hotNodes)
		}
	}
}

// TestPlanSubtrees pins the subtree sizing the Region's budget gives
// ccmorph: 3 nodes of 20 bytes per 64-byte block, 24 hot nodes in 8
// hot blocks at geom16, and at paper scale (§5.4: 64-byte blocks,
// ~21-byte nodes, half of a 1 MB direct-mapped L2) 8192 sets x 3 =
// 24576 nodes = 64 x 384.
func TestPlanSubtrees(t *testing.T) {
	if got := geom16.NodesPerBlock(20); got != 3 {
		t.Errorf("NodesPerBlock = %d, want 3", got)
	}
	r := must(NewRegion(memsys.NewArena(0), geom16, 0.5))
	if hot, blocks := packHot(t, r, 48); hot != 24 || len(blocks) != 8 {
		t.Errorf("hot nodes = %d in %d blocks, want 24 in 8", hot, len(blocks))
	}
	g := FromLevel(cache.PaperHierarchy().Levels[1])
	pr := must(NewRegion(memsys.NewArena(0), g, 0.5))
	if got := pr.HotLeft() / g.BlockSize * g.NodesPerBlock(20); got != 64*384 {
		t.Errorf("paper-scale hot nodes = %d, want %d", got, 64*384)
	}
}

// TestRegionVetoPlacesNothing: a placement the arena's guard vetoes
// fails with ErrPlacementFailed wrapping the guard's error, and
// leaves no trace — no arena claimed, no budget spent, no packing
// cursor moved.
func TestRegionVetoPlacesNothing(t *testing.T) {
	for _, frac := range []float64{0.5, 0} {
		arena := memsys.NewArena(0)
		r := must(NewRegion(arena, geom16, frac))
		a1, _, err := r.Pack(20, true)
		if err != nil {
			t.Fatal(err)
		}
		claimed, left := r.Claimed(), r.HotLeft()
		boom := cclerr.Errorf(cclerr.ErrFaultInjected, "veto")
		arena.SetGuard(func(ev memsys.GuardEvent, _ int64) error {
			if ev == memsys.GuardPlace {
				return boom
			}
			return nil
		})
		for _, hot := range []bool{true, false} {
			if _, err := r.Alloc(64, hot); !errors.Is(err, cclerr.ErrPlacementFailed) || !errors.Is(err, boom) {
				t.Fatalf("frac %v: vetoed Alloc err = %v", frac, err)
			}
			if _, _, err := r.Pack(20, hot); !errors.Is(err, cclerr.ErrPlacementFailed) || !errors.Is(err, boom) {
				t.Fatalf("frac %v: vetoed Pack err = %v", frac, err)
			}
		}
		if r.Claimed() != claimed || r.HotLeft() != left {
			t.Fatalf("frac %v: veto changed Claimed %d->%d, HotLeft %d->%d", frac, claimed, r.Claimed(), left, r.HotLeft())
		}
		arena.SetGuard(nil)
		if a2, _, err := r.Pack(20, true); err != nil || a2 != a1.Add(20) {
			t.Fatalf("frac %v: Pack after vetoes at %v (%v), want %v", frac, a2, err, a1.Add(20))
		}
	}
}

// TestRegionRejectsInvalidRequests: bad sizes fail typed before the
// guard is consulted, and bad fractions or geometries fail NewRegion.
func TestRegionRejectsInvalidRequests(t *testing.T) {
	arena := memsys.NewArena(0)
	guarded := 0
	arena.SetGuard(func(memsys.GuardEvent, int64) error { guarded++; return nil })
	for _, frac := range []float64{0.5, 0} {
		r := must(NewRegion(arena, geom16, frac))
		if _, err := r.Alloc(0, false); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Errorf("frac %v: Alloc(0) err = %v, want ErrInvalidArg", frac, err)
		}
		if _, _, err := r.Pack(-1, false); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Errorf("frac %v: Pack(-1) err = %v, want ErrInvalidArg", frac, err)
		}
		if _, _, err := r.Pack(65, false); !errors.Is(err, cclerr.ErrPlacementFailed) {
			t.Errorf("frac %v: Pack wider than a block err = %v, want ErrPlacementFailed", frac, err)
		}
	}
	if guarded != 0 {
		t.Fatalf("invalid requests consulted the guard %d times", guarded)
	}
	if _, err := NewRegion(arena, geom16, 1); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Errorf("fraction 1 err = %v, want ErrInvalidArg", err)
	}
	if _, err := NewRegion(arena, Geometry{Sets: 1, Assoc: 1, BlockSize: 64}, 0.5); !errors.Is(err, cclerr.ErrBadGeometry) {
		t.Errorf("one-set coloring err = %v, want ErrBadGeometry", err)
	}
	// An uncolored region places extents of any length, block-rounded.
	r := must(NewRegion(arena, geom16, 0))
	a := must(r.Alloc(100*64+1, false))
	b := must(r.Alloc(1, true))
	if int64(a)%64 != 0 || b < a.Add(101*64) {
		t.Fatalf("uncolored extents at %v and %v overlap or misalign", a, b)
	}
}

// TestRegionArenaExhaustion: a grow the arena refuses propagates as
// ErrOutOfMemory from every path, and the region claims nothing for
// it.
func TestRegionArenaExhaustion(t *testing.T) {
	for _, frac := range []float64{0.5, 0} {
		for _, pack := range []bool{true, false} {
			for _, hot := range []bool{true, false} {
				arena := memsys.NewArena(0)
				r := must(NewRegion(arena, geom16, frac))
				budget := r.HotLeft()
				arena.SetGuard(func(ev memsys.GuardEvent, _ int64) error {
					if ev == memsys.GuardGrow {
						return cclerr.Errorf(cclerr.ErrFaultInjected, "no memory")
					}
					return nil
				})
				var err error
				if pack {
					_, _, err = r.Pack(20, hot)
				} else {
					_, err = r.Alloc(64, hot)
				}
				if !errors.Is(err, cclerr.ErrOutOfMemory) || r.Claimed() != 0 || len(r.Extents()) != 0 || r.HotLeft() != budget {
					t.Fatalf("frac %v pack %v hot %v: err = %v, Claimed %d, HotLeft %d of %d",
						frac, pack, hot, err, r.Claimed(), r.HotLeft(), budget)
				}
			}
		}
	}
	// The grow after a successful alignment can fail too.
	arena := memsys.NewArena(0)
	r := must(NewRegion(arena, geom16, 0.5))
	_ = must(r.Alloc(64, true))
	arena.SetLimit(int64(arena.Brk()))
	for i := 0; i < 20; i++ {
		if _, err := r.Alloc(512, true); err != nil {
			if !errors.Is(err, cclerr.ErrOutOfMemory) {
				t.Fatalf("exhausted arena err = %v, want ErrOutOfMemory", err)
			}
			return
		}
	}
	t.Fatal("an arena at its limit never refused a grow")
}
