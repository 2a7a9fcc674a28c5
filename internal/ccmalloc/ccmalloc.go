// Package ccmalloc implements the paper's cache-conscious heap
// allocator (§3.2.1).
//
// ccmalloc takes, in addition to a size, a pointer to an existing
// structure element likely to be accessed contemporaneously with the
// new one, and attempts to place the new element in the same
// last-level cache block as the hint. When the hint's block is full
// it falls back to the hint's virtual-memory page — keeping the items
// from conflicting in the cache and preserving TLB locality — using
// one of three block-selection strategies:
//
//   - Closest: a cache block as close to the hint's block as possible;
//   - FirstFit: the first block on the page with sufficient space;
//   - NewBlock: an unused cache block, optimistically reserving the
//     block's remainder for future hinted allocations.
//
// ccmalloc is built the way the paper describes (§3.2.1): "a memory
// allocator similar to malloc, which takes an additional parameter".
// Hinted allocations are placed by ccmalloc's own page/block
// bookkeeping, which is external and per-block ("inversely
// proportional to the size of a cache block"), so hinted objects pack
// densely. Unhinted allocations — including every call in the §4.4
// null-pointer control experiment — are delegated to the underlying
// conventional allocator, which is why that control behaves like the
// base program plus ccmalloc's bookkeeping overhead (2-6% slower in
// the paper). Misusing ccmalloc only affects performance, never
// correctness: nil and foreign hints simply take the malloc path.
package ccmalloc

import (
	"fmt"
	"sort"

	"ccl/internal/cclerr"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/memsys"
)

// Strategy selects where a hinted allocation goes when the hint's own
// cache block is full (paper §3.2.1).
type Strategy int

const (
	// Closest allocates in a cache block as close to the hint's
	// block as possible.
	Closest Strategy = iota
	// FirstFit uses a first-fit policy over the page's blocks.
	FirstFit
	// NewBlock allocates in an unused cache block, reserving its
	// remainder for future hinted allocations.
	NewBlock
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Closest:
		return "closest"
	case FirstFit:
		return "first-fit"
	case NewBlock:
		return "new-block"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Ticker receives the allocator's bookkeeping cost in cycles. It is
// how allocator overhead — the reason the paper's null-hint control
// runs 2–6% slower than system malloc — enters the simulation.
type Ticker interface {
	Tick(cycles int64)
}

// Cost model, in cycles per operation. ccmalloc does strictly more
// bookkeeping per call than the baseline allocator (hint lookup, page
// table walk, block scan), which these constants reflect.
const (
	AllocCost = 60
	FreeCost  = 30
)

// objAlign is the alignment of hinted placements. Metadata is
// external (a per-page extent map), so hinted objects carry no header
// bytes — the density advantage over malloc that §4.4's gains ride on.
const objAlign = 8

// Stats counts allocator activity.
type Stats struct {
	Allocs         int64
	Frees          int64
	HintedAllocs   int64 // calls with a usable hint
	SameBlock      int64 // placed in the hint's own cache block
	SamePage       int64 // placed elsewhere on the hint's page
	OverflowPage   int64 // placed on the hint page's overflow chain
	Seeded         int64 // hint pointed outside ccmalloc space
	Spills         int64 // hinted allocations that opened a new page
	Degraded       int64 // placements that fell back to the conventional allocator after a placement failure
	BytesRequested int64
	Pages          int64 // small-object pages claimed
	LargeBytes     int64 // bytes claimed for page-spanning objects
}

// extent is a free range within a page, in page-relative offsets.
type extent struct{ off, len int64 }

// page tracks free space within one virtual-memory page at byte
// granularity; the strategies view it through a cache-block lens.
type page struct {
	start    memsys.Addr
	free     []extent // sorted by off, coalesced, non-empty
	pooled   bool     // currently sitting in the empty-page pool
	overflow *page    // where this page's spills continue
}

// wholeFree reports whether the page is entirely unallocated.
func (p *page) wholeFree(pageSize int64) bool {
	return len(p.free) == 1 && p.free[0].off == 0 && p.free[0].len == pageSize
}

// Allocator is a cache-conscious heap allocator.
type Allocator struct {
	arena    *memsys.Arena
	geo      layout.Geometry // last-level cache geometry
	pageSize int64
	strategy Strategy
	clock    Ticker // optional

	pages     []*page
	byPage    map[int64]*page       // arena page number -> page
	sizes     map[memsys.Addr]int64 // live object sizes (external metadata)
	largeAt   map[memsys.Addr]int64 // page-spanning objects -> byte length
	emptyPool []*page               // fully-freed pages awaiting reuse
	seedPage  *page                 // rolling page for foreign-hinted objects
	fallback  *heap.Malloc          // serves unhinted allocations
	stats     Stats
}

// New returns an allocator over arena placing into blocks of the
// given cache geometry, with the given strategy. clock may be nil.
// An unusable geometry (block size not a positive power of two, page
// size not a multiple of the block size) fails with
// cclerr.ErrBadGeometry; an unknown strategy with cclerr.ErrInvalidArg.
func New(arena *memsys.Arena, geo layout.Geometry, strategy Strategy, clock Ticker) (*Allocator, error) {
	if geo.BlockSize <= 0 || geo.BlockSize&(geo.BlockSize-1) != 0 {
		return nil, cclerr.Errorf(cclerr.ErrBadGeometry,
			"ccmalloc: block size %d must be a positive power of two", geo.BlockSize)
	}
	ps := arena.PageSize()
	if ps%geo.BlockSize != 0 {
		return nil, cclerr.Errorf(cclerr.ErrBadGeometry,
			"ccmalloc: page size %d not a multiple of block size %d", ps, geo.BlockSize)
	}
	switch strategy {
	case Closest, FirstFit, NewBlock:
	default:
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"ccmalloc: unknown strategy %d", int(strategy))
	}
	return &Allocator{
		arena:    arena,
		geo:      geo,
		pageSize: ps,
		strategy: strategy,
		clock:    clock,
		byPage:   map[int64]*page{},
		sizes:    map[memsys.Addr]int64{},
		largeAt:  map[memsys.Addr]int64{},
		fallback: heap.New(arena),
	}, nil
}

// Strategy returns the allocator's block-selection strategy.
func (a *Allocator) Strategy() Strategy { return a.strategy }

// Stats returns a snapshot of the allocator's counters.
func (a *Allocator) Stats() Stats { return a.stats }

// HeapBytes returns the arena bytes this allocator has claimed — the
// memory-footprint metric behind the paper's §4.4 overhead numbers.
func (a *Allocator) HeapBytes() int64 {
	return a.stats.Pages*a.pageSize + a.stats.LargeBytes + a.fallback.HeapBytes()
}

func (a *Allocator) tick(n int64) {
	if a.clock != nil {
		a.clock.Tick(n)
	}
}

var _ heap.Allocator = (*Allocator)(nil)

// Alloc allocates without a co-location hint.
func (a *Allocator) Alloc(size int64) (memsys.Addr, error) {
	return a.AllocHint(size, memsys.NilAddr)
}

// degrade is the paper's §4.2 fallback made explicit: a hinted
// placement could not be completed (cause), so the object is placed
// conventionally instead — correctness is preserved, only locality is
// lost — and the degradation is counted for telemetry. Only when the
// conventional allocator also fails does the error escape.
func (a *Allocator) degrade(size int64, cause error) (memsys.Addr, error) {
	a.stats.Degraded++
	p, err := a.fallback.Alloc(size)
	if err != nil {
		return memsys.NilAddr, fmt.Errorf(
			"ccmalloc: degraded allocation of %d bytes failed: %w (after placement failure: %w)",
			size, err, cause)
	}
	return p, nil
}

// AllocHint allocates size bytes, attempting to co-locate the new
// object with hint per the configured strategy. A nil hint, or an
// object wider than a cache block, selects the plain unhinted path;
// every other placement is hinted and first consults the arena's
// guard (memsys.Arena.CheckPlace), once. When a hinted placement
// fails — the guard vetoes it, or the arena cannot open a fresh page
// — the allocation degrades to the conventional allocator rather
// than failing; see degrade.
func (a *Allocator) AllocHint(size int64, hint memsys.Addr) (memsys.Addr, error) {
	if size <= 0 {
		return memsys.NilAddr, cclerr.Errorf(cclerr.ErrInvalidArg,
			"ccmalloc: AllocHint(%d): size must be positive", size)
	}
	a.tick(AllocCost)
	a.stats.Allocs++
	a.stats.BytesRequested += size
	size = alignUp(size, objAlign)
	if size > a.pageSize {
		return a.allocLarge(size)
	}

	if hint.IsNil() || size > a.geo.BlockSize {
		// No hint (or the object cannot share a block): delegate to
		// the conventional allocator underneath.
		return a.fallback.Alloc(size)
	}
	if err := a.arena.CheckPlace(size); err != nil {
		return a.degrade(size, err)
	}
	a.stats.HintedAllocs++

	hp := a.pageOf(hint)
	if hp == nil {
		// The hint points at memory ccmalloc does not manage (the
		// fallback heap, or a ccmorph segment). We cannot join the
		// hint's block, but we can seed a ccmalloc page so that the
		// chain of future allocations hinted off this object packs
		// together from here on.
		a.stats.Seeded++
		return a.allocSeeded(size)
	}

	// First choice: the hint's own cache block (§3.2.1).
	hintBlockOff := blockOffOf(hp, hint, a.geo.BlockSize)
	if p, ok := a.allocInBlock(hp, hintBlockOff, size); ok {
		a.stats.SameBlock++
		return p, nil
	}

	// Second choice: another block on the hint's page, selected by
	// strategy.
	if p, ok := a.allocOnPage(hp, hintBlockOff, size); ok {
		a.stats.SamePage++
		return p, nil
	}

	// The hint's page is out of room: follow its overflow chain —
	// pages that earlier spills from this page opened — so related
	// objects keep congregating instead of scattering.
	last := hp
	for depth := 0; depth < 16 && last.overflow != nil; depth++ {
		last = last.overflow
		if p, ok := a.allocInBlock(last, 0, size); ok {
			a.stats.OverflowPage++
			return p, nil
		}
		if p, ok := a.allocOnPage(last, 0, size); ok {
			a.stats.OverflowPage++
			return p, nil
		}
	}
	// Chain exhausted: open a fresh page and link it in. This is
	// where ccmalloc trades memory for locality — the paper's §4.4
	// memory overheads come from exactly this choice. If the arena
	// cannot supply a page, the placement has failed and the object
	// degrades to conventional allocation.
	a.stats.Spills++
	p, err := a.newPage()
	if err != nil {
		return a.degrade(size, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"ccmalloc: spill page unavailable (%v)", err))
	}
	last.overflow = p
	off, ok := p.fitWithin(0, a.pageSize, size)
	if !ok {
		// Panic justification: size <= pageSize is established above
		// and newPage returns a wholly-free page, so a fresh page that
		// cannot fit the object means the extent bookkeeping itself is
		// corrupt.
		panic("ccmalloc: fresh page cannot satisfy a small allocation")
	}
	return a.commit(p, off, size), nil
}

// Free releases an object returned by Alloc/AllocHint. Freeing an
// address this allocator never handed out fails with
// cclerr.ErrInvalidArg (surfaced by the fallback allocator's tag
// check) and changes nothing.
func (a *Allocator) Free(addr memsys.Addr) error {
	if addr.IsNil() {
		return nil
	}
	a.tick(FreeCost)
	if n, ok := a.largeAt[addr]; ok {
		delete(a.largeAt, addr)
		a.stats.Frees++
		a.freeLargeRegion(addr, n)
		return nil
	}
	size, ok := a.sizes[addr]
	if !ok {
		if a.pageOf(addr) != nil {
			// Inside one of our pages but not a live object: a double
			// free (or interior pointer). Rejecting it here keeps the
			// bogus address away from the fallback's chunk headers.
			return cclerr.Errorf(cclerr.ErrInvalidArg,
				"ccmalloc: Free(%v): not a live object", addr)
		}
		// Not one of ours: it came from the fallback allocator (or is
		// a stranger's address, which the fallback's tag check rejects
		// with a typed error).
		if err := a.fallback.Free(addr); err != nil {
			return err
		}
		a.stats.Frees++
		return nil
	}
	delete(a.sizes, addr)
	a.stats.Frees++
	p := a.pageOf(addr)
	if p == nil {
		// Panic justification: addr was present in the live-object map,
		// so the page that holds it must be tracked; losing it means
		// the allocator's own page table is corrupt.
		panic(fmt.Sprintf("ccmalloc: Free(%v): page vanished", addr))
	}
	p.release(int64(addr)-int64(p.start), size)
	// A fully-freed page goes back to the pool so hinted spills can
	// recycle it instead of growing the heap forever.
	if !p.pooled && p.wholeFree(a.pageSize) {
		p.pooled = true
		a.emptyPool = append(a.emptyPool, p)
	}
	return nil
}

// UsableSize returns the payload capacity of a live object, failing
// with cclerr.ErrInvalidArg for an address that is not one.
func (a *Allocator) UsableSize(addr memsys.Addr) (int64, error) {
	if n, ok := a.largeAt[addr]; ok {
		return n, nil
	}
	if n, ok := a.sizes[addr]; ok {
		return n, nil
	}
	return a.fallback.UsableSize(addr)
}

// --- placement paths ---

// allocInBlock tries to place size bytes inside the cache block at
// the given page-relative block offset.
func (a *Allocator) allocInBlock(p *page, blockOff, size int64) (memsys.Addr, bool) {
	off, ok := p.fitWithin(blockOff, blockOff+a.geo.BlockSize, size)
	if !ok {
		return memsys.NilAddr, false
	}
	return a.commit(p, off, size), true
}

// allocOnPage tries to place size bytes in some block of page p,
// chosen per strategy relative to the hint's block offset.
func (a *Allocator) allocOnPage(p *page, hintBlockOff, size int64) (memsys.Addr, bool) {
	nblocks := a.pageSize / a.geo.BlockSize
	hintIdx := hintBlockOff / a.geo.BlockSize

	switch a.strategy {
	case Closest:
		// Scan outward from the hint block by distance.
		for d := int64(1); d < nblocks; d++ {
			for _, idx := range []int64{hintIdx - d, hintIdx + d} {
				if idx < 0 || idx >= nblocks {
					continue
				}
				if addr, ok := a.allocInBlock(p, idx*a.geo.BlockSize, size); ok {
					return addr, true
				}
			}
		}
	case FirstFit:
		for idx := int64(0); idx < nblocks; idx++ {
			if idx == hintIdx {
				continue // already tried
			}
			if addr, ok := a.allocInBlock(p, idx*a.geo.BlockSize, size); ok {
				return addr, true
			}
		}
	case NewBlock:
		for idx := int64(0); idx < nblocks; idx++ {
			bo := idx * a.geo.BlockSize
			if p.isWholeBlockFree(bo, a.geo.BlockSize) {
				return a.commit(p, bo, size), true
			}
		}
		// No unused block left on the page: stay on the hint's page
		// anyway (the paper's rationale — same page means no cache
		// conflict and better TLB behaviour — still applies) using
		// first fit.
		for idx := int64(0); idx < nblocks; idx++ {
			if addr, ok := a.allocInBlock(p, idx*a.geo.BlockSize, size); ok {
				return addr, true
			}
		}
	default:
		// Panic justification: New rejects unknown strategies with a
		// typed error, so reaching this switch arm means the allocator
		// was constructed bypassing its validation.
		panic(fmt.Sprintf("ccmalloc: unknown strategy %d", int(a.strategy)))
	}
	return memsys.NilAddr, false
}

// allocSeeded places a foreign-hinted object on the rolling seed
// page, opening a new one when it fills; when no seed page can be
// opened the object degrades to conventional placement.
func (a *Allocator) allocSeeded(size int64) (memsys.Addr, error) {
	if a.seedPage != nil {
		if off, ok := a.seedPage.fitWithin(0, a.pageSize, size); ok {
			return a.commit(a.seedPage, off, size), nil
		}
	}
	p, err := a.newPage()
	if err != nil {
		return a.degrade(size, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"ccmalloc: seed page unavailable (%v)", err))
	}
	a.seedPage = p
	off, ok := a.seedPage.fitWithin(0, a.pageSize, size)
	if !ok {
		// Panic justification: same invariant as the spill path — a
		// fresh wholly-free page must fit any size <= pageSize.
		panic("ccmalloc: fresh page cannot satisfy a small allocation")
	}
	return a.commit(a.seedPage, off, size), nil
}

// allocLarge claims dedicated whole pages for a page-spanning object,
// degrading to conventional placement when the arena cannot supply
// aligned pages.
func (a *Allocator) allocLarge(size int64) (memsys.Addr, error) {
	n := alignUp(size, a.pageSize)
	if _, err := a.arena.AlignTo(a.pageSize); err != nil {
		return a.degrade(size, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"ccmalloc: cannot align for large object (%v)", err))
	}
	addr, err := a.arena.Grow(n)
	if err != nil {
		return a.degrade(size, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"ccmalloc: cannot claim %d large-object bytes (%v)", n, err))
	}
	a.stats.LargeBytes += n
	a.largeAt[addr] = n
	return addr, nil
}

// freeLargeRegion turns a freed large object's pages into ordinary
// small-object pages so the space is reusable.
func (a *Allocator) freeLargeRegion(addr memsys.Addr, n int64) {
	a.stats.LargeBytes -= n
	for off := int64(0); off < n; off += a.pageSize {
		p := &page{start: addr.Add(off), free: []extent{{0, a.pageSize}}, pooled: true}
		a.pages = append(a.pages, p)
		a.byPage[a.arena.PageOf(p.start)] = p
		a.emptyPool = append(a.emptyPool, p)
		a.stats.Pages++
	}
}

// commit finalizes a placement: removes [off, off+size) from the
// page's free extents and records the object.
func (a *Allocator) commit(p *page, off, size int64) memsys.Addr {
	p.take(off, size)
	addr := p.start.Add(off)
	a.sizes[addr] = size
	return addr
}

// newPage returns an empty page: a recycled fully-freed one when
// available, else a fresh page-aligned page from the arena. Arena
// exhaustion propagates so callers can degrade.
func (a *Allocator) newPage() (*page, error) {
	for len(a.emptyPool) > 0 {
		p := a.emptyPool[len(a.emptyPool)-1]
		a.emptyPool = a.emptyPool[:len(a.emptyPool)-1]
		p.pooled = false
		if p.wholeFree(a.pageSize) {
			p.overflow = nil
			return p, nil
		}
	}
	if _, err := a.arena.AlignTo(a.pageSize); err != nil {
		return nil, err
	}
	start, err := a.arena.Grow(a.pageSize)
	if err != nil {
		return nil, err
	}
	p := &page{start: start, free: []extent{{0, a.pageSize}}}
	a.pages = append(a.pages, p)
	a.byPage[a.arena.PageOf(start)] = p
	a.stats.Pages++
	return p, nil
}

// pageOf returns the tracked page containing addr, or nil.
func (a *Allocator) pageOf(addr memsys.Addr) *page {
	if addr.IsNil() {
		return nil
	}
	return a.byPage[a.arena.PageOf(addr)]
}

// blockOffOf returns addr's cache-block offset within page p.
func blockOffOf(p *page, addr memsys.Addr, blockSize int64) int64 {
	rel := int64(addr) - int64(p.start)
	return rel &^ (blockSize - 1)
}

func alignUp(n, a int64) int64 { return (n + a - 1) &^ (a - 1) }

// --- page free-extent bookkeeping ---

// fitWithin returns the first 8-aligned offset in [lo, hi) with size
// free bytes, without taking it.
func (p *page) fitWithin(lo, hi, size int64) (int64, bool) {
	for _, e := range p.free {
		start := e.off
		if start < lo {
			start = lo
		}
		start = alignUp(start, 8)
		end := e.off + e.len
		if end > hi {
			end = hi
		}
		if end-start >= size {
			return start, true
		}
		if e.off >= hi {
			break
		}
	}
	return 0, false
}

// isWholeBlockFree reports whether the block [off, off+bs) is
// entirely free.
func (p *page) isWholeBlockFree(off, bs int64) bool {
	for _, e := range p.free {
		if e.off <= off && e.off+e.len >= off+bs {
			return true
		}
		if e.off > off {
			break
		}
	}
	return false
}

// take removes [off, off+size) from the free extents. The range must
// be free.
func (p *page) take(off, size int64) {
	for i, e := range p.free {
		if e.off <= off && off+size <= e.off+e.len {
			var repl []extent
			if off > e.off {
				repl = append(repl, extent{e.off, off - e.off})
			}
			if off+size < e.off+e.len {
				repl = append(repl, extent{off + size, e.off + e.len - (off + size)})
			}
			p.free = append(p.free[:i], append(repl, p.free[i+1:]...)...)
			return
		}
	}
	// Panic justification: take is only called with offsets that
	// fitWithin/isWholeBlockFree just reported free; a non-free range
	// here means the extent map is internally inconsistent.
	panic(fmt.Sprintf("ccmalloc: take(%d,%d): range not free", off, size))
}

// release returns [off, off+size) to the free extents, coalescing
// with neighbours.
func (p *page) release(off, size int64) {
	i := sort.Search(len(p.free), func(i int) bool { return p.free[i].off >= off })
	// Panic justification (both overlap guards): Free consults the
	// live-object map before releasing, and a double free is rejected
	// there with a typed error; an overlapping release here means the
	// map and the extent lists disagree — allocator metadata corruption.
	if i > 0 && p.free[i-1].off+p.free[i-1].len > off {
		panic(fmt.Sprintf("ccmalloc: release(%d,%d) overlaps free space", off, size))
	}
	if i < len(p.free) && off+size > p.free[i].off {
		panic(fmt.Sprintf("ccmalloc: release(%d,%d) overlaps free space", off, size))
	}
	p.free = append(p.free, extent{})
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = extent{off, size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(p.free) && p.free[i].off+p.free[i].len == p.free[i+1].off {
		p.free[i].len += p.free[i+1].len
		p.free = append(p.free[:i+1], p.free[i+2:]...)
	}
	if i > 0 && p.free[i-1].off+p.free[i-1].len == p.free[i].off {
		p.free[i-1].len += p.free[i].len
		p.free = append(p.free[:i], p.free[i+1:]...)
	}
}

// BlocksUsed counts cache blocks on ccmalloc's pages holding at
// least one live byte — the block-granular footprint that exposes
// new-block's reservation slack (§4.4's memory overheads).
func (a *Allocator) BlocksUsed() int64 {
	var used int64
	for _, p := range a.pages {
		nblocks := a.pageSize / a.geo.BlockSize
		for idx := int64(0); idx < nblocks; idx++ {
			if !p.isWholeBlockFree(idx*a.geo.BlockSize, a.geo.BlockSize) {
				used++
			}
		}
	}
	return used
}

// CheckInvariants verifies every page's free list is sorted,
// coalesced, and in bounds.
func (a *Allocator) CheckInvariants() error {
	for _, p := range a.pages {
		prevEnd := int64(-1)
		for _, e := range p.free {
			if e.len <= 0 {
				return fmt.Errorf("ccmalloc: page %v: empty extent", p.start)
			}
			if e.off < 0 || e.off+e.len > a.pageSize {
				return fmt.Errorf("ccmalloc: page %v: extent [%d,+%d) out of bounds", p.start, e.off, e.len)
			}
			if e.off <= prevEnd {
				return fmt.Errorf("ccmalloc: page %v: extents unsorted or uncoalesced at %d", p.start, e.off)
			}
			prevEnd = e.off + e.len
		}
	}
	return nil
}
