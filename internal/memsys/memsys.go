// Package memsys implements the simulated address space that every
// structure in this repository lives in.
//
// The paper's techniques (ccmorph, ccmalloc) work by controlling the
// exact addresses at which structure elements are placed. A Go program
// cannot dictate the garbage collector's placement decisions, so this
// package provides an explicit, byte-addressable arena: addresses are
// plain integers, and the cache simulator (package cache) maps them to
// cache sets exactly as hardware would. See DESIGN.md §1.
//
// The host copy of the mapped bytes is a table of fixed 64 KiB chunks
// (chunkSize). Growing the arena appends chunks and never moves or
// copies mapped bytes, so an arena that ends at 64 MiB has allocated
// 64 MiB plus its chunk table; a contiguous slice grown by append
// would have re-copied itself at every capacity step. A typed load or
// store that fits one chunk takes a single-chunk fast path; one that
// straddles a chunk edge, and every bulk operation, walks the chunks.
//
// Failure contract (DESIGN.md §7): growth can fail — the simulated
// address space is 32-bit, like the paper's UltraSPARC, and tests
// inject growth faults — so Grow and AlignTo return typed errors
// (cclerr.ErrOutOfMemory). Bounds violations on mapped memory panic
// with a Fault: they are the simulator's SIGSEGV, and continuing
// would silently corrupt unrelated structures.
package memsys

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"ccl/internal/cclerr"
)

// Addr is a simulated virtual address. The zero value is the nil
// pointer: no valid allocation ever starts at address 0.
type Addr uint64

// NilAddr is the simulated null pointer.
const NilAddr Addr = 0

// IsNil reports whether a is the simulated null pointer.
func (a Addr) IsNil() bool { return a == NilAddr }

// Add returns the address offset by n bytes.
func (a Addr) Add(n int64) Addr { return Addr(int64(a) + n) }

// String formats the address in hex, the way a C programmer would
// print a pointer.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// AddrRange is a half-open span [Start, End) of the simulated address
// space. Telemetry labels structures by the ranges their elements
// occupy; allocators report the extents they claim as ranges.
type AddrRange struct {
	Start Addr
	End   Addr // exclusive
}

// Contains reports whether a falls inside the range.
func (r AddrRange) Contains(a Addr) bool { return a >= r.Start && a < r.End }

// Len returns the range's size in bytes.
func (r AddrRange) Len() int64 { return int64(r.End) - int64(r.Start) }

// String formats the range as [start,end).
func (r AddrRange) String() string { return fmt.Sprintf("[%v,%v)", r.Start, r.End) }

// DefaultPageSize is the simulated virtual-memory page size. The
// paper's system (Solaris on UltraSPARC) used 8 KB pages, and ccmorph
// aligns its coloring gaps to page multiples, so the default matches.
const DefaultPageSize = 8192

// arenaBase is the first mapped address. Leaving the low page unmapped
// makes nil-pointer dereferences detectable, as on a real OS.
const arenaBase = DefaultPageSize

// AddrSpaceLimit is the first address past the simulated 32-bit
// address space: the hard ceiling the break can never cross, matching
// the paper's 32-bit UltraSPARC and the 4-byte simulated pointers
// (PtrSize) every structure stores.
const AddrSpaceLimit = int64(1) << 32

// Fault is the panic value raised by an out-of-bounds access to
// mapped memory — the simulator's SIGSEGV. It implements error so
// recovery layers (ccmorph's copy-then-commit) can convert a fault
// in user-supplied accessor code into an ordinary typed error.
type Fault struct {
	Addr   Addr
	Size   int64
	Mapped AddrRange
}

// Error implements error.
func (f Fault) Error() string {
	return fmt.Sprintf("memsys: fault accessing %d bytes at %v (mapped region %v)",
		f.Size, f.Addr, f.Mapped)
}

// chunkShift fixes the host backing store's chunk size. The mapped
// region lives in chunkSize-byte chunks: chunk i holds the bytes of
// addresses arenaBase+i*chunkSize onwards.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Arena is a simulated address space. It grows on demand in
// page-granular extents and supports bounds-checked typed loads and
// stores. Arena performs no cache accounting; package machine layers
// that on top.
type Arena struct {
	pageSize int64
	chunks   []*[chunkSize]byte // backing store, allocated as the break advances
	size     uint64             // mapped bytes: the break is arenaBase+size
	limit    int64              // first address Grow may never reach past
	guard    func(n int64) error
}

// NewArena returns an empty address space with the given page size.
// A non-positive pageSize selects DefaultPageSize. The arena starts
// with the full 32-bit address-space limit and no grow guard; this
// package holds no mutable state outside Arena instances, so arenas
// on different goroutines never interfere.
func NewArena(pageSize int64) *Arena {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Arena{pageSize: pageSize, limit: AddrSpaceLimit}
}

// SetGrowGuard installs a hook consulted before every growth of this
// arena. A non-nil error from the guard fails the grow with that
// error (wrapped in cclerr.ErrOutOfMemory); internal/faults uses this
// seam to schedule "fail the Nth grow" deterministically, and sim.Sim
// installs a forwarding guard here so a whole run's arenas share one
// instance-scoped fault seam.
func (a *Arena) SetGrowGuard(g func(n int64) error) { a.guard = g }

// SetLimit lowers (or restores, up to AddrSpaceLimit) the first
// address growth may never reach. Tests use small limits to exercise
// exhaustion without allocating gigabytes of backing store.
func (a *Arena) SetLimit(limit int64) {
	if limit > AddrSpaceLimit {
		limit = AddrSpaceLimit
	}
	a.limit = limit
}

// Limit returns the current address-space ceiling.
func (a *Arena) Limit() int64 { return a.limit }

// PageSize returns the simulated virtual-memory page size in bytes.
func (a *Arena) PageSize() int64 { return a.pageSize }

// Base returns the lowest mapped address of the arena.
func (a *Arena) Base() Addr { return arenaBase }

// Brk returns the current end of the mapped region: the next address
// Sbrk would return.
func (a *Arena) Brk() Addr { return Addr(arenaBase + a.size) }

// Size returns the number of mapped bytes.
func (a *Arena) Size() int64 { return int64(a.size) }

// Grow extends the mapped region by at least n bytes, rounded up to a
// whole number of pages, and returns the first address of the new
// extent. It fails with cclerr.ErrInvalidArg for negative n and with
// cclerr.ErrOutOfMemory when the rounded extent would cross the
// address-space limit or the grow guard vetoes it; on failure the
// mapped region is unchanged and no backing store is allocated.
func (a *Arena) Grow(n int64) (Addr, error) {
	if n < 0 {
		return NilAddr, cclerr.Errorf(cclerr.ErrInvalidArg, "memsys: Grow(%d): negative size", n)
	}
	brk := a.Brk()
	// Compare the request with the room left before rounding it: page
	// rounding a request near math.MaxInt64 would overflow.
	room := a.limit - int64(brk)
	grow := n
	if n <= room {
		if grow = n / a.pageSize * a.pageSize; grow < n {
			grow += a.pageSize
		}
	}
	if grow > room {
		return NilAddr, cclerr.Errorf(cclerr.ErrOutOfMemory,
			"memsys: Grow(%d): break %v + %d bytes exceeds the %d-byte address-space limit",
			n, brk, grow, a.limit)
	}
	if a.guard != nil {
		if err := a.guard(n); err != nil {
			return NilAddr, fmt.Errorf("memsys: Grow(%d) vetoed: %w: %w", n, cclerr.ErrOutOfMemory, err)
		}
	}
	a.size += uint64(grow)
	for uint64(len(a.chunks))<<chunkShift < a.size {
		a.chunks = append(a.chunks, new([chunkSize]byte))
	}
	return brk, nil
}

// Sbrk is Grow for callers that have sized their workload within the
// arena by construction (tests, examples, host-side scratch).
//
// Panic justification: Sbrk exists so construction-time code does not
// thread errors it has made impossible; any error here is a caller
// bug (negative size or a workload that overflows the declared
// limit), and the typed error is preserved as the panic value.
// Library code on allocation paths must call Grow instead.
func (a *Arena) Sbrk(n int64) Addr {
	start, err := a.Grow(n)
	if err != nil {
		panic(err)
	}
	return start
}

// AlignTo advances the break so the next Grow result is aligned to
// align bytes (a power of two), returning the aligned break. The
// skipped bytes are wasted, exactly as an sbrk-based C allocator
// would waste them. Fails with cclerr.ErrInvalidArg for a bad
// alignment and propagates Grow failures.
func (a *Arena) AlignTo(align int64) (Addr, error) {
	if align <= 0 || align&(align-1) != 0 {
		return NilAddr, cclerr.Errorf(cclerr.ErrInvalidArg,
			"memsys: AlignTo(%d): alignment must be a positive power of two", align)
	}
	rem := int64(a.Brk()) & (align - 1)
	if rem != 0 {
		if _, err := a.Grow(align - rem); err != nil {
			return NilAddr, err
		}
		// Grow rounds to pages; when align exceeds the page size the
		// page rounding may still leave us unaligned, so repeat until
		// the invariant holds. Each Grow strictly advances the break.
		for int64(a.Brk())&(align-1) != 0 {
			if _, err := a.Grow(1); err != nil {
				return NilAddr, err
			}
		}
	}
	return a.Brk(), nil
}

// AlignBrk is AlignTo for construction-time callers; see Sbrk.
//
// Panic justification: same contract as Sbrk — errors are caller
// bugs at construction scale, and the typed error is the panic value.
func (a *Arena) AlignBrk(align int64) Addr {
	brk, err := a.AlignTo(align)
	if err != nil {
		panic(err)
	}
	return brk
}

// Mapped reports whether the n bytes starting at addr are all mapped.
func (a *Arena) Mapped(addr Addr, n int64) bool {
	x := uint64(addr) - arenaBase
	return addr >= arenaBase && n >= 0 && uint64(n) <= a.size && x <= a.size-uint64(n)
}

// check panics with a descriptive Fault when an access is out of
// bounds.
//
// Panic justification: an unmapped access is the simulator's SIGSEGV
// — the address arithmetic that produced it is already wrong, and
// returning an error would let placement bugs corrupt unrelated
// structures silently. The panic value is a typed Fault so recovery
// layers (ccmorph) can convert it at a safe boundary.
func (a *Arena) check(addr Addr, n int64) {
	if !a.Mapped(addr, n) {
		panic(Fault{Addr: addr, Size: n, Mapped: AddrRange{Start: arenaBase, End: a.Brk()}})
	}
}

// load is the typed loads' slow path: an n-byte access that
// straddles a chunk edge, or faults. It stays out of line so the
// fast path needs no frame for its buffer.
//
//go:noinline
func (a *Arena) load(addr Addr, n int64) uint64 {
	var b [8]byte
	a.ReadBytes(addr, b[:n])
	return binary.LittleEndian.Uint64(b[:])
}

// store is the typed stores' slow path; see load.
//
//go:noinline
func (a *Arena) store(addr Addr, n int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	a.WriteBytes(addr, b[:n])
}

// The typed accessors' fast path serves an access that is mapped and
// lies in one chunk: x+n-1 < a.size bounds it, and lo <= chunkSize-n
// keeps it in one chunk. Base-relative offsets that wrap below
// arenaBase land in the last n-1 bytes of a chunk, so the one-chunk
// test rejects them too, and load or store raises their Fault.

// Load8 reads one byte.
func (a *Arena) Load8(addr Addr) uint8 {
	if x := uint64(addr) - arenaBase; x < a.size {
		return a.chunks[x>>chunkShift][x&chunkMask]
	}
	return uint8(a.load(addr, 1))
}

// Store8 writes one byte.
func (a *Arena) Store8(addr Addr, v uint8) {
	if x := uint64(addr) - arenaBase; x < a.size {
		a.chunks[x>>chunkShift][x&chunkMask] = v
		return
	}
	a.store(addr, 1, uint64(v))
}

// Load32 reads a little-endian uint32.
func (a *Arena) Load32(addr Addr) uint32 {
	x := uint64(addr) - arenaBase
	if lo := x & chunkMask; x+3 < a.size && lo <= chunkSize-4 {
		return binary.LittleEndian.Uint32(a.chunks[x>>chunkShift][lo:])
	}
	return uint32(a.load(addr, 4))
}

// Store32 writes a little-endian uint32.
func (a *Arena) Store32(addr Addr, v uint32) {
	x := uint64(addr) - arenaBase
	if lo := x & chunkMask; x+3 < a.size && lo <= chunkSize-4 {
		binary.LittleEndian.PutUint32(a.chunks[x>>chunkShift][lo:], v)
		return
	}
	a.store(addr, 4, uint64(v))
}

// Load64 reads a little-endian uint64.
func (a *Arena) Load64(addr Addr) uint64 {
	x := uint64(addr) - arenaBase
	if lo := x & chunkMask; x+7 < a.size && lo <= chunkSize-8 {
		return binary.LittleEndian.Uint64(a.chunks[x>>chunkShift][lo:])
	}
	return a.load(addr, 8)
}

// Store64 writes a little-endian uint64.
func (a *Arena) Store64(addr Addr, v uint64) {
	x := uint64(addr) - arenaBase
	if lo := x & chunkMask; x+7 < a.size && lo <= chunkSize-8 {
		binary.LittleEndian.PutUint64(a.chunks[x>>chunkShift][lo:], v)
		return
	}
	a.store(addr, 8, v)
}

// PtrSize is the size of a simulated pointer: 4 bytes, as on the
// paper's 32-bit UltraSPARC. Structure element sizes — and therefore
// k, the number of elements per cache block — depend on it.
const PtrSize = 4

// LoadAddr reads a simulated pointer (32-bit, see PtrSize).
func (a *Arena) LoadAddr(addr Addr) Addr { return Addr(a.Load32(addr)) }

// StoreAddr writes a simulated pointer.
//
// Panic justification: Grow enforces the 32-bit limit, so every
// address an allocator hands out fits in a simulated pointer; a wider
// value here is fabricated (corrupted address arithmetic), the moral
// equivalent of a Fault, and truncating it would plant a wrong
// pointer for a later dereference to chase.
func (a *Arena) StoreAddr(addr Addr, v Addr) {
	if int64(v) >= AddrSpaceLimit || int64(v) < 0 {
		panic(fmt.Sprintf("memsys: address %v exceeds the 32-bit simulated address space", v))
	}
	a.Store32(addr, uint32(v))
}

// LoadInt reads a little-endian int64.
func (a *Arena) LoadInt(addr Addr) int64 { return int64(a.Load64(addr)) }

// StoreInt writes a little-endian int64.
func (a *Arena) StoreInt(addr Addr, v int64) { a.Store64(addr, uint64(v)) }

// LoadFloat reads a little-endian float64.
func (a *Arena) LoadFloat(addr Addr) float64 { return math.Float64frombits(a.Load64(addr)) }

// StoreFloat writes a little-endian float64.
func (a *Arena) StoreFloat(addr Addr, v float64) { a.Store64(addr, math.Float64bits(v)) }

// chunk returns the bytes from addr to the end of its chunk; the
// bulk operations walk a checked range with it.
func (a *Arena) chunk(addr Addr) []byte {
	x := uint64(addr) - arenaBase
	return a.chunks[x>>chunkShift][x&chunkMask:]
}

// Memset fills n bytes at addr with b.
func (a *Arena) Memset(addr Addr, b byte, n int64) {
	a.check(addr, n)
	for n > 0 {
		s := a.chunk(addr)
		s = s[:min(int64(len(s)), n)]
		for i := range s {
			s[i] = b
		}
		addr = addr.Add(int64(len(s)))
		n -= int64(len(s))
	}
}

// Memcpy copies n bytes from src to dst, chunk by chunk. The regions
// may not overlap (ccmorph copies between distinct regions only);
// overlap fails with cclerr.ErrInvalidArg and copies nothing.
func (a *Arena) Memcpy(dst, src Addr, n int64) error {
	if dst == src || n == 0 {
		return nil
	}
	if (dst < src && dst.Add(n) > src) || (src < dst && src.Add(n) > dst) {
		return cclerr.Errorf(cclerr.ErrInvalidArg,
			"memsys: Memcpy(%v, %v, %d): overlapping regions", dst, src, n)
	}
	a.check(dst, n)
	a.check(src, n)
	for n > 0 {
		d := a.chunk(dst)
		c := int64(copy(d[:min(int64(len(d)), n)], a.chunk(src)))
		dst, src, n = dst.Add(c), src.Add(c), n-c
	}
	return nil
}

// ReadBytes copies the len(dst) bytes starting at addr into dst.
func (a *Arena) ReadBytes(addr Addr, dst []byte) {
	a.check(addr, int64(len(dst)))
	for len(dst) > 0 {
		c := copy(dst, a.chunk(addr))
		addr, dst = addr.Add(int64(c)), dst[c:]
	}
}

// WriteBytes copies buf into the arena at addr.
func (a *Arena) WriteBytes(addr Addr, buf []byte) {
	a.check(addr, int64(len(buf)))
	for len(buf) > 0 {
		c := copy(a.chunk(addr), buf)
		addr, buf = addr.Add(int64(c)), buf[c:]
	}
}

// PageOf returns the page number containing addr.
func (a *Arena) PageOf(addr Addr) int64 { return int64(addr) / a.pageSize }

// SamePage reports whether two addresses share a virtual page, the
// test ccmalloc uses when deciding whether a hint is still useful.
func (a *Arena) SamePage(x, y Addr) bool { return a.PageOf(x) == a.PageOf(y) }

// AddrSet is a set of simulated addresses in one flat open-addressing
// table. The table doubles when half full, so it is sized to what it
// holds, not to the arena: n addresses cost O(n) host bytes and
// O(log n) allocations. ccmorph and split detect an element reachable
// twice (a DAG or cycle) with it. The zero value is an empty set.
type AddrSet struct {
	slots []Addr // NilAddr marks a free slot
	shift uint   // 64 - log2(len(slots))
	n     int
}

// Add inserts a, which must not be NilAddr, and reports whether it
// was absent.
func (s *AddrSet) Add(a Addr) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing spreads the aligned addresses allocators hand
	// out; the top bits of the product pick the home slot.
	for i := uint64(a) * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case a:
			return false
		case NilAddr:
			s.slots[i] = a
			s.n++
			return true
		}
	}
}

func (s *AddrSet) grow() {
	old := s.slots
	size := 2 * len(old)
	if size == 0 {
		size = 16
	}
	s.slots, s.shift, s.n = make([]Addr, size), uint(64-bits.TrailingZeros(uint(size))), 0
	for _, a := range old {
		if a != NilAddr {
			s.Add(a)
		}
	}
}
