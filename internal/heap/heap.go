// Package heap implements the baseline memory allocator ("system
// malloc") that cache-conscious allocation is compared against.
//
// It is a classic boundary-tag allocator in the dlmalloc family:
// chunks carry an 8-byte header and footer holding size and an in-use
// bit, free chunks are threaded onto segregated free lists through
// their own payload bytes (all of this lives in the simulated arena),
// neighbours are coalesced on free, and the heap grows by carving an
// sbrk wilderness. The point of this fidelity is that "allocation
// order" produces the same kind of layout it produced for the paper's
// baseline runs: consecutive allocations are adjacent, freed holes get
// reused, and headers dilute cache blocks exactly as they did for
// malloc in 1999.
package heap

import (
	"fmt"

	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// Allocator is the interface shared by the baseline allocator and
// ccmalloc; benchmarks are written against it so that swapping
// allocation policies is a one-line change, as in the paper.
//
// Failure contract (DESIGN.md §7): allocation can fail — the arena is
// finite and tests inject growth faults — so Alloc and AllocHint
// return typed errors wrapping cclerr sentinels (ErrOutOfMemory on
// exhaustion, ErrInvalidArg on precondition violations) rather than
// panicking.
type Allocator interface {
	// Alloc returns the address of a new object of size bytes,
	// 8-byte aligned.
	Alloc(size int64) (memsys.Addr, error)
	// AllocHint is Alloc with a co-location hint: an existing
	// object likely to be accessed contemporaneously with the new
	// one (paper §3.2.1). The baseline allocator ignores the hint.
	AllocHint(size int64, hint memsys.Addr) (memsys.Addr, error)
	// Free releases an object returned by Alloc/AllocHint. Freeing
	// an address that is not a live allocation fails with
	// cclerr.ErrInvalidArg.
	Free(addr memsys.Addr) error
	// HeapBytes returns the total arena bytes this allocator has
	// claimed — the memory-footprint metric of §4.4.
	HeapBytes() int64
}

// MustAlloc is Alloc for callers that have sized their workload within
// the arena by construction (workload kernels, tests, examples).
//
// Panic justification: construction-scale code does not thread errors
// it has made impossible; a failure here is a caller bug or a test's
// injected fault surfacing where no degradation policy exists, and
// the typed error is preserved as the panic value. Library code on
// allocation paths must handle the error instead.
func MustAlloc(a Allocator, size int64) memsys.Addr {
	p, err := a.Alloc(size)
	if err != nil {
		panic(err)
	}
	return p
}

// MustAllocHint is AllocHint for construction-scale callers; see
// MustAlloc.
//
// Panic justification: same contract as MustAlloc — the typed error
// is the panic value, and the bench runner's per-experiment recover
// converts it back into a structured failure record.
func MustAllocHint(a Allocator, size int64, hint memsys.Addr) memsys.Addr {
	p, err := a.AllocHint(size, hint)
	if err != nil {
		panic(err)
	}
	return p
}

const (
	headerSize    = 4 // 32-bit boundary tags, as in a 1999 malloc
	footerSize    = 4
	chunkOverhead = headerSize + footerSize
	minChunk      = 16 // header + 8 payload (two 4-byte links) + footer
	align         = 8

	inUseBit  = 1
	fenceBits = inUseBit // fences are permanently "in use"

	// exactBins cover chunk sizes 32..exactMax in 8-byte steps;
	// larger chunks share a small number of range bins.
	exactMax  = 512
	rangeBins = 16
)

// Stats summarizes allocator activity.
type Stats struct {
	Allocs         int64
	Frees          int64
	BytesRequested int64 // sum of Alloc size arguments for live objects
	BytesLive      int64 // chunk bytes currently in use (incl. overhead)
	HeapBytes      int64 // arena bytes claimed by this allocator
	Splits         int64
	Coalesces      int64
	Extends        int64 // sbrk extensions
}

// Malloc is the baseline allocator.
type Malloc struct {
	arena *memsys.Arena
	bins  []memsys.Addr // bin heads (payload addresses of free chunks)
	stats Stats

	// wilderness: [top, segEnd) is unstructured free space at the
	// end of the current segment. segEnd==0 means no open segment.
	top    memsys.Addr
	segEnd memsys.Addr
}

// New returns an empty allocator over arena.
func New(arena *memsys.Arena) *Malloc {
	return &Malloc{
		arena: arena,
		bins:  make([]memsys.Addr, exactMax/align+rangeBins+1),
	}
}

// Stats returns a snapshot of allocator counters.
func (m *Malloc) Stats() Stats { return m.stats }

// HeapBytes returns total arena bytes claimed by this allocator.
func (m *Malloc) HeapBytes() int64 { return m.stats.HeapBytes }

func alignUp(n, a int64) int64 { return (n + a - 1) &^ (a - 1) }

// chunkSize converts a payload request to a chunk size.
func chunkSize(req int64) int64 {
	s := alignUp(req, align) + chunkOverhead
	if s < minChunk {
		s = minChunk
	}
	return s
}

// binFor maps a chunk size to a bin index.
func (m *Malloc) binFor(size int64) int {
	if size <= exactMax {
		return int(size / align)
	}
	// Range bins: one per power of two above exactMax.
	idx := exactMax / align
	for s := int64(exactMax); s < size && idx < len(m.bins)-1; s <<= 1 {
		idx++
	}
	return idx
}

// --- chunk primitives (metadata lives in the arena) ---

// A chunk is addressed by its payload address p; header at p-8,
// footer at p-8+size-8.

func (m *Malloc) readHeader(p memsys.Addr) (size int64, used bool) {
	h := m.arena.Load32(p.Add(-headerSize))
	return int64(h &^ 7), h&inUseBit != 0
}

func (m *Malloc) writeTags(p memsys.Addr, size int64, used bool) {
	v := uint32(size)
	if used {
		v |= inUseBit
	}
	m.arena.Store32(p.Add(-headerSize), v)
	m.arena.Store32(p.Add(size-chunkOverhead), v)
}

// fence writes a sentinel pseudo-chunk header at addr so coalescing
// never walks past a segment boundary.
func (m *Malloc) fence(addr memsys.Addr) {
	m.arena.Store32(addr, uint32(0)|fenceBits)
}

// free-list links are stored in the first 8 payload bytes.
func (m *Malloc) nextFree(p memsys.Addr) memsys.Addr { return m.arena.LoadAddr(p) }
func (m *Malloc) prevFree(p memsys.Addr) memsys.Addr { return m.arena.LoadAddr(p.Add(4)) }
func (m *Malloc) setNextFree(p, q memsys.Addr)       { m.arena.StoreAddr(p, q) }
func (m *Malloc) setPrevFree(p, q memsys.Addr)       { m.arena.StoreAddr(p.Add(4), q) }

func (m *Malloc) pushFree(p memsys.Addr, size int64) {
	m.writeTags(p, size, false)
	b := m.binFor(size)
	head := m.bins[b]
	m.setNextFree(p, head)
	m.setPrevFree(p, memsys.NilAddr)
	if !head.IsNil() {
		m.setPrevFree(head, p)
	}
	m.bins[b] = p
}

func (m *Malloc) unlinkFree(p memsys.Addr, size int64) {
	next, prev := m.nextFree(p), m.prevFree(p)
	if prev.IsNil() {
		m.bins[m.binFor(size)] = next
	} else {
		m.setNextFree(prev, next)
	}
	if !next.IsNil() {
		m.setPrevFree(next, prev)
	}
}

// --- allocation ---

// Alloc returns a new object of size bytes. It fails with
// cclerr.ErrInvalidArg for a non-positive size and propagates arena
// exhaustion (cclerr.ErrOutOfMemory) from the sbrk path; on failure
// no allocator state changes.
func (m *Malloc) Alloc(size int64) (memsys.Addr, error) {
	if size <= 0 {
		return memsys.NilAddr, cclerr.Errorf(cclerr.ErrInvalidArg,
			"heap: Alloc(%d): size must be positive", size)
	}
	need := chunkSize(size)
	if p := m.allocFromBins(need); !p.IsNil() {
		m.stats.Allocs++
		m.stats.BytesRequested += size
		return p, nil
	}
	p, err := m.allocFromTop(need)
	if err != nil {
		return memsys.NilAddr, err
	}
	m.stats.Allocs++
	m.stats.BytesRequested += size
	return p, nil
}

// AllocHint ignores the hint: the baseline allocator is hint-blind.
func (m *Malloc) AllocHint(size int64, _ memsys.Addr) (memsys.Addr, error) {
	return m.Alloc(size)
}

// allocFromBins searches the segregated lists, first-fit within a
// bin, escalating to larger bins. Returns nil if nothing fits.
func (m *Malloc) allocFromBins(need int64) memsys.Addr {
	for b := m.binFor(need); b < len(m.bins); b++ {
		for p := m.bins[b]; !p.IsNil(); p = m.nextFree(p) {
			size, _ := m.readHeader(p)
			if size >= need {
				m.unlinkFree(p, size)
				m.carve(p, size, need)
				return p
			}
		}
	}
	return memsys.NilAddr
}

// carve marks p (a free chunk of chunk size have) as in use at size
// need, splitting off the remainder when it is large enough.
func (m *Malloc) carve(p memsys.Addr, have, need int64) {
	if have-need >= minChunk {
		m.writeTags(p, need, true)
		rest := p.Add(need)
		m.pushFree(rest, have-need)
		m.stats.Splits++
		m.stats.BytesLive += need
	} else {
		m.writeTags(p, have, true)
		m.stats.BytesLive += have
	}
}

// allocFromTop carves from the wilderness, extending it if needed.
func (m *Malloc) allocFromTop(need int64) (memsys.Addr, error) {
	if m.segEnd.IsNil() || int64(m.segEnd)-int64(m.top) < need {
		if err := m.extend(need); err != nil {
			return memsys.NilAddr, err
		}
	}
	p := m.top.Add(headerSize) // skip header slot
	m.writeTags(p, need, true)
	m.top = m.top.Add(need)
	m.fence(m.top) // provisional end fence; overwritten by next carve
	m.stats.BytesLive += need
	return p, nil
}

// extend grows the heap via the arena. If the new extent is adjacent
// to the current segment, the wilderness simply grows; otherwise the
// old wilderness is released to the free lists and a fresh segment
// opens. A failed grow leaves the heap exactly as it was.
func (m *Malloc) extend(need int64) error {
	want := need + 2*headerSize // room for both fences
	if want < memsys.DefaultPageSize {
		want = memsys.DefaultPageSize
	}
	start, err := m.arena.Grow(want)
	if err != nil {
		return fmt.Errorf("heap: extend(%d): %w", need, err)
	}
	grown := m.arena.Brk()
	m.stats.Extends++
	m.stats.HeapBytes += int64(grown) - int64(start)

	if start == m.segEnd {
		// Adjacent: the old end-fence slot is absorbed into the
		// wilderness and a new end fence caps the grown segment.
		m.fence(grown.Add(-headerSize))
		m.segEnd = grown.Add(-headerSize)
		return nil
	}
	// Non-adjacent extent (another allocator grabbed pages in
	// between): retire the old wilderness as a free chunk and open
	// a fresh fenced segment.
	m.retireTop()
	m.fence(start)                  // start-of-segment fence
	m.fence(grown.Add(-headerSize)) // end-of-segment fence
	m.top = start.Add(headerSize)   // first header slot
	m.segEnd = grown.Add(-headerSize)
	return nil
}

// retireTop converts any remaining wilderness into a free chunk
// spanning exactly [top, segEnd), so the segment's end fence remains
// the coalescing stop.
func (m *Malloc) retireTop() {
	if m.segEnd.IsNil() {
		return
	}
	rest := int64(m.segEnd) - int64(m.top)
	if rest >= minChunk {
		m.pushFree(m.top.Add(headerSize), rest)
	}
	m.top, m.segEnd = memsys.NilAddr, memsys.NilAddr
}

// --- free ---

// Free releases the object at addr, coalescing with free neighbours.
// Freeing a nil address is a no-op; freeing an address whose tags do
// not describe a live chunk (double free, interior pointer) fails with
// cclerr.ErrInvalidArg and changes nothing.
func (m *Malloc) Free(addr memsys.Addr) error {
	if addr.IsNil() {
		return nil
	}
	if !m.arena.Mapped(addr.Add(-headerSize), headerSize) {
		return cclerr.Errorf(cclerr.ErrInvalidArg,
			"heap: Free(%v): address outside the heap", addr)
	}
	size, used := m.readHeader(addr)
	if !used || size < minChunk {
		return cclerr.Errorf(cclerr.ErrInvalidArg,
			"heap: Free(%v): not an allocated chunk (size=%d used=%v)", addr, size, used)
	}
	m.stats.Frees++
	m.stats.BytesLive -= size

	p := addr
	// Coalesce forward. The next chunk's payload starts at p+size;
	// segment fences (and the wilderness fence at top) carry the
	// in-use bit, so merging stops at every boundary automatically.
	if nsize, nused := m.readHeader(p.Add(size)); !nused && nsize >= minChunk {
		m.unlinkFree(p.Add(size), nsize)
		size += nsize
		m.stats.Coalesces++
	}
	// Coalesce backward: the previous chunk's footer sits at p-16.
	prevFooter := m.arena.Load32(p.Add(-chunkOverhead))
	if prevFooter&inUseBit == 0 {
		psize := int64(prevFooter &^ 7)
		if psize >= minChunk {
			prev := p.Add(-psize)
			m.unlinkFree(prev, psize)
			p = prev
			size += psize
			m.stats.Coalesces++
		}
	}
	m.pushFree(p, size)
	return nil
}

// UsableSize returns the payload capacity of an allocated object. It
// fails with cclerr.ErrInvalidArg when addr is not a live allocation.
func (m *Malloc) UsableSize(addr memsys.Addr) (int64, error) {
	size, used := m.readHeader(addr)
	if !used {
		return 0, cclerr.Errorf(cclerr.ErrInvalidArg, "heap: UsableSize(%v): chunk is free", addr)
	}
	return size - chunkOverhead, nil
}

// CheckInvariants walks every free list verifying tags and links;
// tests call it after workloads to catch metadata corruption.
func (m *Malloc) CheckInvariants() error {
	for b, head := range m.bins {
		var prev memsys.Addr
		for p := head; !p.IsNil(); p = m.nextFree(p) {
			size, used := m.readHeader(p)
			if used {
				return fmt.Errorf("heap: bin %d: free list contains in-use chunk %v", b, p)
			}
			if size < minChunk {
				return fmt.Errorf("heap: bin %d: undersized free chunk %v (%d bytes)", b, p, size)
			}
			footer := m.arena.Load32(p.Add(size - chunkOverhead))
			if int64(footer&^7) != size || footer&inUseBit != 0 {
				return fmt.Errorf("heap: chunk %v: footer/header mismatch", p)
			}
			if m.prevFree(p) != prev {
				return fmt.Errorf("heap: bin %d: broken back-link at %v", b, p)
			}
			prev = p
		}
	}
	return nil
}
