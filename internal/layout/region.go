package layout

import (
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// Region is the one cache-conscious placement primitive: ccmorph's
// clusters, split's chunks, the B-tree's nodes, the colored KV
// store's groups and RADIANCE's relocated item lists are all placed
// through one. Built with a color fraction in (0,1) it partitions
// the cache into a hot and a cold color (paper §2.2, Figure 2);
// built with fraction 0 it is uncolored and hands out plain
// block-aligned extents. It owns:
//
//   - the coloring and its two color allocators, or the plain bump;
//   - the hot budget, HotSets × Assoc × BlockSize bytes — what the hot
//     sets hold without self-conflict (§5.3's c/2 × ⌊b/e⌋ × a nodes);
//   - the packing cursor Pack fills cache blocks with (§2.1);
//   - Claimed and Extents, the footprint of everything it placed.
//
// Every Alloc and every Pack consults the arena's guard
// (memsys.Arena.CheckPlace) exactly once, after validating its size,
// so a fault schedule armed on the run's sim.Sim can veto any
// cache-conscious placement. The block a Pack opens is part of that
// one placement and is not consulted again.
type Region struct {
	arena     *memsys.Arena
	geo       Geometry
	coloring  Coloring          // zero HotSets when uncolored
	hot, cold *segmentAllocator // colored
	bump      *blockBump        // uncolored
	budget    int64             // hot bytes the hot sets hold
	hotBytes  int64             // hot bytes placed so far

	cur    memsys.Addr // block Pack is filling
	used   int64       // bytes used in cur
	curHot bool
}

// NewRegion returns a region over arena targeting cache geometry g.
// frac > 0 reserves that fraction of the sets for hot data (see
// NewColoring, whose errors it returns); frac <= 0 leaves the region
// uncolored. The colored region needs a power-of-two way period
// (sets × block size) so extents align to period boundaries, the
// uncolored one a power-of-two block size; anything else fails with
// cclerr.ErrBadGeometry.
func NewRegion(arena *memsys.Arena, g Geometry, frac float64) (*Region, error) {
	r := &Region{arena: arena, geo: g}
	if frac <= 0 {
		if bs := g.BlockSize; bs <= 0 || bs&(bs-1) != 0 {
			return nil, cclerr.Errorf(cclerr.ErrBadGeometry,
				"layout: block size %d must be a positive power of two", bs)
		}
		r.bump = &blockBump{span: span{arena: arena}, blockSize: g.BlockSize}
		return r, nil
	}
	col, err := NewColoring(g, frac)
	if err != nil {
		return nil, err
	}
	if p := col.wayPeriod(); p <= 0 || p&(p-1) != 0 {
		return nil, cclerr.Errorf(cclerr.ErrBadGeometry,
			"layout: way period %d is not a power of two", p)
	}
	r.coloring = col
	r.hot = &segmentAllocator{span: span{arena: arena}, coloring: col, hot: true}
	r.cold = &segmentAllocator{span: span{arena: arena}, coloring: col}
	r.budget = col.HotSets * int64(col.Assoc) * g.BlockSize
	return r, nil
}

// Geometry returns the cache geometry the region targets.
func (r *Region) Geometry() Geometry { return r.geo }

// Coloring returns the region's coloring, and false when it is
// uncolored.
func (r *Region) Coloring() (Coloring, bool) { return r.coloring, r.bump == nil }

// HotLeft returns the hot budget not yet spent, in bytes; always 0
// for an uncolored region.
func (r *Region) HotLeft() int64 { return max(r.budget-r.hotBytes, 0) }

// Alloc places one block-aligned extent of n bytes lying wholly in
// the hot color when hot is set and in the cold color otherwise;
// an uncolored region ignores hot. A hot extent is charged to the
// budget but never refused for lack of it: callers that want "hot
// while the budget lasts" consult HotLeft first. A non-positive n
// fails with cclerr.ErrInvalidArg; an extent longer than its color's
// contiguous run, or one the guard vetoes, fails with
// cclerr.ErrPlacementFailed; arena exhaustion propagates as
// cclerr.ErrOutOfMemory.
func (r *Region) Alloc(n int64, hot bool) (memsys.Addr, error) {
	if n <= 0 {
		return memsys.NilAddr, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: Region.Alloc(%d): non-positive size", n)
	}
	if s := r.segment(hot); s != nil && n > s.runLen() {
		return memsys.NilAddr, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"layout: extent of %d bytes exceeds %d-byte color run", n, s.runLen())
	}
	if err := r.arena.CheckPlace(n); err != nil {
		return memsys.NilAddr, err
	}
	return r.extent(n, hot)
}

// Pack places an item of n bytes densely in cache blocks — "laid out
// linearly" as in Figure 1 — opening a fresh block only when the item
// would straddle the current one's end, so short items share blocks
// instead of wasting them. The block is opened hot when wantHot is
// set and a whole block of hot budget is left, cold otherwise (plain
// when uncolored); the bool reports the color of the block the item
// landed in. A non-positive n fails with cclerr.ErrInvalidArg; an
// item wider than a cache block, or one the guard vetoes, fails with
// cclerr.ErrPlacementFailed; arena exhaustion propagates.
func (r *Region) Pack(n int64, wantHot bool) (memsys.Addr, bool, error) {
	bs := r.geo.BlockSize
	if n <= 0 {
		return memsys.NilAddr, false, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: Region.Pack(%d): non-positive size", n)
	}
	if n > bs {
		return memsys.NilAddr, false, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"layout: item of %d bytes exceeds block size %d", n, bs)
	}
	if err := r.arena.CheckPlace(n); err != nil {
		return memsys.NilAddr, false, err
	}
	if r.cur.IsNil() || r.used+n > bs {
		hot := wantHot && r.HotLeft() >= bs
		blk, err := r.extent(bs, hot)
		if err != nil {
			return memsys.NilAddr, false, err
		}
		r.cur, r.used, r.curHot = blk, 0, hot
	}
	a := r.cur.Add(r.used)
	r.used += n
	return a, r.curHot, nil
}

// segment returns the allocator of the hot or cold color; nil when
// the region is uncolored.
func (r *Region) segment(hot bool) *segmentAllocator {
	if hot {
		return r.hot
	}
	return r.cold
}

// extent claims n bytes in the hot or cold color (plain when
// uncolored) and charges hot bytes to the budget.
func (r *Region) extent(n int64, hot bool) (memsys.Addr, error) {
	s := r.segment(hot)
	if s == nil {
		return r.bump.alloc(n)
	}
	a, err := s.alloc(n)
	if err == nil && hot {
		r.hotBytes += n
	}
	return a, err
}

// Claimed returns the arena bytes the region has claimed so far.
func (r *Region) Claimed() int64 {
	if r.bump != nil {
		return r.bump.claimed
	}
	return r.hot.claimed + r.cold.claimed
}

// Extents returns the arena ranges the region has claimed so far,
// coalesced (hot color first, then cold), so callers can register
// what they placed as a telemetry region ("ctree-nodes") and see its
// misses attributed apart from the rest of the heap.
func (r *Region) Extents() []memsys.AddrRange {
	if r.bump != nil {
		return append([]memsys.AddrRange(nil), r.bump.extents...)
	}
	return append(append([]memsys.AddrRange(nil), r.hot.extents...), r.cold.extents...)
}

// span is a run of arena extents one allocator claims: next is the
// first free byte of the newest extent, limit its end.
type span struct {
	arena       *memsys.Arena
	next, limit memsys.Addr
	claimed     int64 // bytes of arena claimed (footprint)
	extents     []memsys.AddrRange
}

// claim maps a fresh extent of n bytes starting on an align boundary
// and makes it the span's newest. A failed claim leaves the span
// unchanged (alignment padding the arena already consumed stays
// consumed, but is never counted here).
func (s *span) claim(align, n int64) error {
	start, err := s.arena.AlignTo(align)
	if err != nil {
		return err
	}
	if _, err := s.arena.Grow(n); err != nil {
		return err
	}
	end := s.arena.Brk()
	s.claimed += int64(end) - int64(start)
	s.next, s.limit = start, end
	if k := len(s.extents); k > 0 && s.extents[k-1].End == start {
		s.extents[k-1].End = end
	} else {
		s.extents = append(s.extents, memsys.AddrRange{Start: start, End: end})
	}
	return nil
}

// segmentAllocator hands out block-aligned extents restricted to one
// color. It implements the address-space striping of Figure 2:
// within every way period of the address space, bytes mapping to
// sets [0, HotSets) belong to the hot allocator and the rest to the
// cold one; each skips the other's stripes.
type segmentAllocator struct {
	span
	coloring Coloring
	hot      bool
}

// runLen returns the length of one contiguous run of the allocator's
// color.
func (s *segmentAllocator) runLen() int64 {
	c := s.coloring
	if s.hot {
		return c.HotSets * c.BlockSize
	}
	return (c.Sets - c.HotSets) * c.BlockSize
}

// runEnd returns the exclusive end of the contiguous color run
// containing addr: the hot run ends where the cold stripe of its way
// period begins, the cold run at the period boundary.
func (s *segmentAllocator) runEnd(addr memsys.Addr) memsys.Addr {
	c := s.coloring
	periodStart := (int64(addr) / c.wayPeriod()) * c.wayPeriod()
	if s.hot {
		return memsys.Addr(periodStart + c.HotSets*c.BlockSize)
	}
	return memsys.Addr(periodStart + c.wayPeriod())
}

// skipToRegion advances addr (block-aligned) to the next block of the
// allocator's color.
func (s *segmentAllocator) skipToRegion(addr memsys.Addr) memsys.Addr {
	c := s.coloring
	set := c.SetOf(addr)
	if s.hot {
		if set < c.HotSets {
			return addr
		}
		// Jump to set 0 of the next way period.
		period := c.wayPeriod()
		return memsys.Addr(((int64(addr) / period) + 1) * period)
	}
	if set >= c.HotSets {
		return addr
	}
	// Jump to the first cold set of this period.
	periodStart := (int64(addr) / c.wayPeriod()) * c.wayPeriod()
	return memsys.Addr(periodStart + c.HotSets*c.BlockSize)
}

// alloc returns a block-aligned extent of n bytes, 0 < n <= runLen(),
// lying entirely in the allocator's color. New arena is claimed
// starting on a way-period boundary so the color stripes of Figure 2
// line up — the paper's requirement that coloring gaps be multiples
// of the VM page size falls out of this alignment for all modeled
// geometries — with at least one full period of slack.
func (s *segmentAllocator) alloc(n int64) (memsys.Addr, error) {
	period := s.coloring.wayPeriod()
	for {
		if s.limit.IsNil() {
			if err := s.claim(period, n+period); err != nil {
				return memsys.NilAddr, err
			}
		}
		p := s.skipToRegion(s.next)
		if p.Add(n) > s.limit {
			if err := s.claim(period, n+period); err != nil {
				return memsys.NilAddr, err
			}
			continue
		}
		// The extent must fit inside p's contiguous color run.
		// Checking only the last block's color is not enough: an
		// extent can leave the run, cross the other color's stripe,
		// and end in the next period's run of the right color with
		// every middle byte miscolored. (Found by the coloring
		// property test — see TestSegmentAllocatorExtentStaysInRun.)
		if p.Add(n) <= s.runEnd(p) {
			s.next = memsys.Addr(alignUp(int64(p)+n, s.coloring.BlockSize))
			return p, nil
		}
		// Extent straddles out of the color run: jump to the start
		// of the next run and retry (n <= runLen guarantees a fit).
		s.next = s.skipToRegion(s.runEnd(p))
	}
}

func alignUp(n, a int64) int64 { return (n + a - 1) &^ (a - 1) }

// blockBump hands out consecutive block-aligned extents from
// contiguous arena extents: the uncolored region's allocator,
// clustering without coloring.
type blockBump struct {
	span
	blockSize int64
}

// alloc returns the next n bytes rounded up to whole blocks, claiming
// 64 blocks (or the extent, if larger) at a time.
func (b *blockBump) alloc(n int64) (memsys.Addr, error) {
	n = alignUp(n, b.blockSize)
	if b.next.IsNil() || b.next.Add(n) > b.limit {
		if err := b.claim(b.blockSize, max(n, 64*b.blockSize)); err != nil {
			return memsys.NilAddr, err
		}
	}
	p := b.next
	b.next = b.next.Add(n)
	return p, nil
}
