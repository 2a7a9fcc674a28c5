package layout

import (
	"errors"
	"testing"
	"testing/quick"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// must unwraps constructor results in tests whose inputs make failure
// impossible; a panic here fails the test loudly.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// geom16 is an easily-reasoned geometry: 16 sets, direct-mapped,
// 64-byte blocks (1 KB cache).
var geom16 = Geometry{Sets: 16, Assoc: 1, BlockSize: 64}

func TestFromLevel(t *testing.T) {
	g := FromLevel(cache.PaperHierarchy().Levels[1])
	if g.Sets != 16384 || g.Assoc != 1 || g.BlockSize != 64 {
		t.Fatalf("FromLevel = %+v", g)
	}
	if g.Capacity() != 1<<20 {
		t.Fatalf("Capacity = %d, want 1MB", g.Capacity())
	}
}

func TestSetOfAndAlign(t *testing.T) {
	g := geom16
	if g.SetOf(0) != 0 || g.SetOf(64) != 1 || g.SetOf(15*64) != 15 {
		t.Fatal("SetOf wrong within first period")
	}
	if g.SetOf(16*64) != 0 {
		t.Fatal("SetOf does not wrap at way period")
	}
	if g.SetOf(64+63) != 1 {
		t.Fatal("SetOf should ignore offset within block")
	}
	if g.BlockAlign(130) != 128 {
		t.Fatalf("BlockAlign(130) = %v", g.BlockAlign(130))
	}
}

func TestNodesPerBlock(t *testing.T) {
	g := geom16
	cases := []struct{ elem, want int64 }{
		{20, 3}, {64, 1}, {65, 1}, {32, 2}, {1, 64}, {200, 1},
	}
	for _, c := range cases {
		if got := g.NodesPerBlock(c.elem); got != c.want {
			t.Errorf("NodesPerBlock(%d) = %d, want %d", c.elem, got, c.want)
		}
	}
}

func TestNodesPerBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NodesPerBlock(0) did not panic")
		}
	}()
	geom16.NodesPerBlock(0)
}

func TestNewColoring(t *testing.T) {
	c := must(NewColoring(geom16, 0.5))
	if c.HotSets != 8 {
		t.Fatalf("HotSets = %d, want 8", c.HotSets)
	}
	// Extremes clamp to [1, Sets-1].
	if must(NewColoring(geom16, 0.001)).HotSets != 1 {
		t.Error("tiny fraction should clamp to 1 hot set")
	}
	if must(NewColoring(geom16, 0.999)).HotSets != 15 {
		t.Error("huge fraction should clamp to Sets-1")
	}
	for _, frac := range []float64{0, 1, -0.5, 2} {
		if _, err := NewColoring(geom16, frac); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Errorf("NewColoring(%v) err = %v, want ErrInvalidArg", frac, err)
		}
	}
}

// The color allocators are reached through the Region: Alloc(n, true)
// is the hot stripe's allocator, Alloc(n, false) the cold one's, and
// both share the region's arena.

func TestSegmentAllocatorHotStaysHot(t *testing.T) {
	r := must(NewRegion(memsys.NewArena(0), geom16, 0.5))
	col, _ := r.Coloring()
	for i := 0; i < 200; i++ {
		p := must(r.Alloc(64, true))
		if !col.IsHot(p) {
			t.Fatalf("hot alloc %d at %v maps to set %d (hot sets: %d)", i, p, col.SetOf(p), col.HotSets)
		}
	}
}

func TestSegmentAllocatorColdStaysCold(t *testing.T) {
	r := must(NewRegion(memsys.NewArena(0), geom16, 0.5))
	col, _ := r.Coloring()
	for i := 0; i < 200; i++ {
		p := must(r.Alloc(64, false))
		if col.IsHot(p) {
			t.Fatalf("cold alloc %d at %v maps to hot set %d", i, p, col.SetOf(p))
		}
	}
}

func TestSegmentAllocatorMultiBlockExtents(t *testing.T) {
	r := must(NewRegion(memsys.NewArena(0), geom16, 0.5))
	col, _ := r.Coloring()
	for _, hot := range []bool{true, false} {
		// 8 sets x 64 B = 512 B runs on both sides of this coloring.
		for i := 0; i < 50; i++ {
			n := int64(64 * (1 + i%8))
			p := must(r.Alloc(n, hot))
			if int64(p)%64 != 0 {
				t.Fatalf("extent %v not block aligned", p)
			}
			for off := int64(0); off < n; off += 64 {
				if col.IsHot(p.Add(off)) != hot {
					t.Fatalf("hot=%v extent [%v,+%d) leaks at offset %d (set %d)",
						hot, p, n, off, col.SetOf(p.Add(off)))
				}
			}
		}
	}
}

func TestSegmentAllocatorExtentsDisjoint(t *testing.T) {
	r := must(NewRegion(memsys.NewArena(0), geom16, 0.25))
	type ext struct {
		p memsys.Addr
		n int64
	}
	var got []ext
	for i := 0; i < 100; i++ {
		n := int64(64 * (1 + i%4))
		p := must(r.Alloc(n, true))
		for _, e := range got {
			if p < e.p.Add(e.n) && e.p < p.Add(n) {
				t.Fatalf("extent [%v,+%d) overlaps [%v,+%d)", p, n, e.p, e.n)
			}
		}
		got = append(got, ext{p, n})
	}
	if r.Claimed() <= 0 {
		t.Fatal("Claimed should be positive after allocations")
	}
}

func TestSegmentAllocatorOversizeFails(t *testing.T) {
	arena := memsys.NewArena(0)
	r := must(NewRegion(arena, geom16, 0.5)) // hot run = 8*64 = 512 bytes
	guarded := 0
	arena.SetGuard(func(memsys.GuardEvent, int64) error { guarded++; return nil })
	if _, err := r.Alloc(513, true); !errors.Is(err, cclerr.ErrPlacementFailed) {
		t.Fatalf("oversize extent err = %v, want ErrPlacementFailed", err)
	}
	if guarded != 0 || r.Claimed() != 0 {
		t.Fatalf("an invalid request reached the guard (%d calls) or the arena (%d bytes)", guarded, r.Claimed())
	}
}

func TestSegmentAllocatorsShareArena(t *testing.T) {
	r := must(NewRegion(memsys.NewArena(0), geom16, 0.5))
	col, _ := r.Coloring()
	var hots, colds []memsys.Addr
	for i := 0; i < 50; i++ {
		hots = append(hots, must(r.Alloc(64, true)))
		colds = append(colds, must(r.Alloc(128, false)))
	}
	seen := map[memsys.Addr]bool{}
	for _, p := range hots {
		if seen[p] {
			t.Fatalf("duplicate extent %v", p)
		}
		seen[p] = true
	}
	for _, p := range colds {
		if seen[p] {
			t.Fatalf("hot/cold extents collide at %v", p)
		}
		if col.IsHot(p) || col.IsHot(p.Add(64)) {
			t.Fatalf("cold extent %v touches hot sets", p)
		}
	}
}

func TestSegmentAllocatorQuick(t *testing.T) {
	r := must(NewRegion(memsys.NewArena(0), Geometry{Sets: 64, Assoc: 1, BlockSize: 16}, 0.5))
	col, _ := r.Coloring()
	f := func(sz uint8) bool {
		n := int64(sz%30+1) * 16
		p := must(r.Alloc(n, true))
		for off := int64(0); off < n; off += 16 {
			if !col.IsHot(p.Add(off)) {
				return false
			}
		}
		return int64(p)%16 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNonPowerOfTwoPeriodFails(t *testing.T) {
	arena := memsys.NewArena(0)
	if _, err := NewRegion(arena, Geometry{Sets: 12, Assoc: 1, BlockSize: 64}, 0.5); !errors.Is(err, cclerr.ErrBadGeometry) {
		t.Fatalf("non-power-of-two period err = %v, want ErrBadGeometry", err)
	}
	if _, err := NewRegion(arena, Geometry{Sets: 16, Assoc: 1, BlockSize: 0}, 0.5); !errors.Is(err, cclerr.ErrBadGeometry) {
		t.Fatalf("zero-byte blocks err = %v, want ErrBadGeometry", err)
	}
	// Uncolored, only the block size matters.
	if _, err := NewRegion(arena, Geometry{Sets: 12, Assoc: 1, BlockSize: 48}, 0); !errors.Is(err, cclerr.ErrBadGeometry) {
		t.Fatalf("non-power-of-two block err = %v, want ErrBadGeometry", err)
	}
	if _, err := NewRegion(arena, Geometry{Sets: 12, Assoc: 1, BlockSize: 64}, 0); err != nil {
		t.Fatalf("uncolored region over 12 sets: %v", err)
	}
}

func TestColoredAllocatorsPartitionQuick(t *testing.T) {
	// Property: for random colorings and allocation sizes, hot and
	// cold extents never overlap and always land in their regions.
	arena := memsys.NewArena(0)
	f := func(hotFrac uint8, sizes [6]uint8) bool {
		frac := 0.1 + 0.8*float64(hotFrac)/255
		r := must(NewRegion(arena, Geometry{Sets: 128, Assoc: 2, BlockSize: 32}, frac))
		col, _ := r.Coloring()
		run := col.HotSets * col.BlockSize
		coldRun := (col.Sets - col.HotSets) * col.BlockSize
		for _, sz := range sizes {
			n := (int64(sz%8) + 1) * 32
			if n <= run {
				p := must(r.Alloc(n, true))
				for off := int64(0); off < n; off += 32 {
					if !col.IsHot(p.Add(off)) {
						return false
					}
				}
			}
			if n <= coldRun {
				p := must(r.Alloc(n, false))
				for off := int64(0); off < n; off += 32 {
					if col.IsHot(p.Add(off)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSegmentAllocatorExtentStaysInRun is the regression test for a
// bug the coloring property test found: Alloc accepted an extent
// whose last block was the right color but which crossed the other
// color's stripe in the middle — e.g. with 128 sets of 16 B and 106
// hot sets, a 1482-byte hot extent placed at period offset 896 ran
// through cold sets [106,128) into the next period. Every byte of
// every extent must map to the allocator's own color.
func TestSegmentAllocatorExtentStaysInRun(t *testing.T) {
	r := must(NewRegion(memsys.NewArena(0), Geometry{Sets: 128, Assoc: 2, BlockSize: 16}, 106.0/128))
	col, _ := r.Coloring()
	if col.HotSets != 106 {
		t.Fatalf("HotSets = %d, want 106", col.HotSets)
	}
	for _, n := range []int64{894, 1482} {
		a := must(r.Alloc(n, true))
		for b := int64(0); b < n; b++ {
			if !col.IsHot(a.Add(b)) {
				t.Fatalf("hot extent %v+%d: byte %d in cold set %d", a, n, b, col.SetOf(a.Add(b)))
			}
		}
	}
	for _, n := range []int64{300, 352} {
		a := must(r.Alloc(n, false))
		for b := int64(0); b < n; b++ {
			if col.IsHot(a.Add(b)) {
				t.Fatalf("cold extent %v+%d: byte %d in hot set %d", a, n, b, col.SetOf(a.Add(b)))
			}
		}
	}
}
