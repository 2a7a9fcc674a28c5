package memsys

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"ccl/internal/cclerr"
)

// The arena's host store is a table of chunkSize-byte chunks. These
// tests pin the accesses that cross a chunk edge, where a typed
// access leaves the one-chunk fast path and a bulk operation walks
// several chunks.

// fault runs f and returns the Fault it raised, failing the test when
// f returns normally and re-raising any other panic (a Go index panic
// is a bug, not a simulated SIGSEGV).
func fault(t *testing.T, f func()) (got Fault) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("access did not fault")
		}
		var ok bool
		if got, ok = r.(Fault); !ok {
			panic(r)
		}
	}()
	f()
	return
}

// chunkEdge returns the first address of chunk c.
func chunkEdge(c int64) Addr { return Addr(arenaBase + c*chunkSize) }

func TestTypedAccessStraddlingChunkEdge(t *testing.T) {
	a := NewArena(0)
	a.Sbrk(3 * chunkSize)
	for _, edge := range []Addr{chunkEdge(1), chunkEdge(2)} {
		for _, width := range []int64{4, 8} {
			for p := edge.Add(1 - width); p < edge; p++ {
				t.Run(fmt.Sprintf("%v/%d", p, width), func(t *testing.T) {
					a.Memset(edge.Add(-16), 0xEE, 32)
					var want uint64 = 0x8877665544332211
					if width == 4 {
						want &= 0xFFFFFFFF
						a.Store32(p, uint32(want))
					} else {
						a.Store64(p, want)
					}
					// Byte by byte, the value is little-endian across
					// the edge, and its neighbours are untouched.
					for i := int64(-1); i <= width; i++ {
						wantByte := byte(0xEE)
						if i >= 0 && i < width {
							wantByte = byte(want >> (8 * i))
						}
						if got := a.Load8(p.Add(i)); got != wantByte {
							t.Fatalf("byte %d = %#x, want %#x", i, got, wantByte)
						}
					}
					var got uint64
					if width == 4 {
						got = uint64(a.Load32(p))
					} else {
						got = a.Load64(p)
					}
					if got != want {
						t.Fatalf("load = %#x, want %#x", got, want)
					}
				})
			}
		}
	}
	// The derived accessors share the straddling path.
	p := chunkEdge(1).Add(-3)
	a.StoreAddr(p, chunkEdge(2))
	if got := a.LoadAddr(p); got != chunkEdge(2) {
		t.Errorf("LoadAddr = %v, want %v", got, chunkEdge(2))
	}
	a.StoreInt(p, -5)
	if got := a.LoadInt(p); got != -5 {
		t.Errorf("LoadInt = %d, want -5", got)
	}
	a.StoreFloat(p, 1.5)
	if got := a.LoadFloat(p); got != 1.5 {
		t.Errorf("LoadFloat = %v, want 1.5", got)
	}
}

func TestBulkOpsSpanningChunks(t *testing.T) {
	a := NewArena(0)
	a.Sbrk(8 * chunkSize)
	// [start, start+n) covers part of chunk 0, all of 1 and 2, and
	// part of chunk 3.
	start, n := chunkEdge(1).Add(-100), int64(2*chunkSize+200)
	pattern := make([]byte, n)
	for i := range pattern {
		pattern[i] = byte(i*7 + i>>8)
	}
	a.WriteBytes(start, pattern)
	got := make([]byte, n)
	a.ReadBytes(start, got)
	if !bytes.Equal(got, pattern) {
		t.Fatal("ReadBytes did not return what WriteBytes wrote")
	}
	for _, edge := range []Addr{chunkEdge(1), chunkEdge(2), chunkEdge(3)} {
		off := int64(edge - start)
		if a.Load8(edge.Add(-1)) != pattern[off-1] || a.Load8(edge) != pattern[off] {
			t.Fatalf("bytes around %v do not match the pattern", edge)
		}
	}

	// Copy to a destination whose chunk edges fall at other offsets
	// of the region, so source and destination pieces differ.
	dst := chunkEdge(4).Add(1234)
	if err := a.Memcpy(dst, start, n); err != nil {
		t.Fatal(err)
	}
	a.ReadBytes(dst, got)
	if !bytes.Equal(got, pattern) {
		t.Fatal("Memcpy across chunks changed the bytes")
	}

	// Memset a sub-range spanning three chunks; the bytes either side
	// keep the pattern.
	from, m := chunkEdge(1).Add(-10), int64(chunkSize+20)
	a.Memset(from, 0xA5, m)
	a.ReadBytes(start, got)
	for i := range got {
		want := pattern[i]
		if p := start.Add(int64(i)); p >= from && p < from.Add(m) {
			want = 0xA5
		}
		if got[i] != want {
			t.Fatalf("byte at %v = %#x after Memset, want %#x", start.Add(int64(i)), got[i], want)
		}
	}
}

func TestGrowByPagesAcrossChunkEdges(t *testing.T) {
	a := NewArena(0)
	var pages []Addr
	for a.Size() < 2*chunkSize+3*a.PageSize() {
		p := a.Sbrk(a.PageSize())
		// Each new page reads as zero, and its last byte is mapped.
		if a.Load64(p) != 0 || a.Load8(p.Add(a.PageSize()-1)) != 0 {
			t.Fatalf("page at %v not zero-filled", p)
		}
		if want := (a.Size() + chunkSize - 1) / chunkSize; int64(len(a.chunks)) != want {
			t.Fatalf("size %d holds %d chunks, want %d", a.Size(), len(a.chunks), want)
		}
		a.StoreInt(p.Add(a.PageSize()-8), int64(len(pages)))
		pages = append(pages, p)
	}
	// Growth never moved earlier bytes.
	for i, p := range pages {
		if got := a.LoadInt(p.Add(a.PageSize() - 8)); got != int64(i) {
			t.Fatalf("page %d marker = %d after growth", i, got)
		}
	}
}

func TestStraddlingAccessFaultsOnFirstUnmappedByte(t *testing.T) {
	a := NewArena(0)
	a.Sbrk(chunkSize) // the break sits exactly on a chunk edge
	brk := a.Brk()
	if brk != chunkEdge(1) {
		t.Fatalf("brk = %v, want chunk edge %v", brk, chunkEdge(1))
	}
	mapped := AddrRange{Start: a.Base(), End: brk}
	cases := []struct {
		name string
		addr Addr
		size int64
		f    func()
	}{
		{"Load64 4 bytes short", brk.Add(-4), 8, func() { a.Load64(brk.Add(-4)) }},
		{"Store64 1 byte short", brk.Add(-7), 8, func() { a.Store64(brk.Add(-7), 1) }},
		{"Load32 1 byte short", brk.Add(-3), 4, func() { a.Load32(brk.Add(-3)) }},
		{"Store32 2 bytes short", brk.Add(-2), 4, func() { a.Store32(brk.Add(-2), 1) }},
		{"Load8 at brk", brk, 1, func() { a.Load8(brk) }},
		{"ReadBytes", brk.Add(-10), 11, func() { a.ReadBytes(brk.Add(-10), make([]byte, 11)) }},
		{"WriteBytes", brk.Add(-1), 2, func() { a.WriteBytes(brk.Add(-1), []byte{1, 2}) }},
		{"Memset", brk.Add(-5), 6, func() { a.Memset(brk.Add(-5), 0, 6) }},
		{"Load64 below base", a.Base().Add(-4), 8, func() { a.Load64(a.Base().Add(-4)) }},
		{"Load32 below base", a.Base().Add(-1), 4, func() { a.Load32(a.Base().Add(-1)) }},
		{"Load64 at top of address space", Addr(1<<64 - 4), 8, func() { a.Load64(Addr(1<<64 - 4)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := fault(t, c.f)
			want := Fault{Addr: c.addr, Size: c.size, Mapped: mapped}
			if got != want {
				t.Fatalf("fault = %+v, want %+v", got, want)
			}
		})
	}
	// A faulting write leaves the mapped bytes it would have touched
	// unchanged.
	if got := a.Load32(brk.Add(-4)); got != 0 {
		t.Fatalf("mapped half of a faulting store was written: %#x", got)
	}
	// A Memcpy whose source runs past the break faults before copying.
	if f := fault(t, func() { _ = a.Memcpy(a.Base(), brk.Add(-8), 16) }); f.Addr != brk.Add(-8) {
		t.Fatalf("Memcpy fault at %v, want the source %v", f.Addr, brk.Add(-8))
	}
}

// Growing never copies mapped bytes: an arena grown to 64 MiB in page
// steps allocates its 64 MiB of chunks plus the chunk table. A
// contiguous store grown by append allocates about five times that.
func TestGrowAllocatesOnlyChunks(t *testing.T) {
	const target = 64 << 20
	table := uint64(2 * target / chunkSize * 8) // an append-grown table of chunk pointers allocates under twice its final size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := NewArena(0)
	for a.Size() < target {
		a.Sbrk(8 << 10)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	got, limit := after.TotalAlloc-before.TotalAlloc, target+table+64<<10
	t.Logf("growing to %d MiB in 8 KiB steps allocated %.2f MiB", target>>20, float64(got)/(1<<20))
	if got > limit {
		t.Fatalf("growing to %d MiB allocated %.1f MiB, want at most %.2f MiB",
			target>>20, float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}

func TestAddrSet(t *testing.T) {
	var s AddrSet
	ref := map[Addr]bool{}
	x := uint64(1)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		// Mostly aligned addresses, as allocators hand out, with
		// repeats.
		a := Addr(arenaBase + (x>>40)%4096*24)
		if got, want := s.Add(a), !ref[a]; got != want {
			t.Fatalf("Add(%v) = %v, want %v", a, got, want)
		}
		ref[a] = true
	}
	for a := range ref {
		if s.Add(a) {
			t.Fatalf("Add(%v) after insertion reported it absent", a)
		}
	}
	// The table is sized to what it holds.
	if len(s.slots) > 4*len(ref) {
		t.Fatalf("%d slots for %d addresses", len(s.slots), len(ref))
	}
}

// FuzzArenaOps drives one arena with random grows, typed loads and
// stores and bulk operations, biased toward chunk edges and both ends
// of the mapped region, and checks every result against a flat byte
// slice. An access the reference says is unmapped must panic with a
// Fault and change nothing; any other panic fails the target.
func FuzzArenaOps(f *testing.F) {
	f.Add([]byte{0, 20, 0, 2, 1, 8, 0, 3, 2, 4, 0})
	f.Add([]byte{0, 255, 0, 1, 3, 1, 0, 0, 5, 5, 2, 0, 4, 6, 7, 0, 0, 9})
	f.Add([]byte{0, 40, 0, 4, 0, 40, 0, 5, 1, 4, 1, 0, 1, 1, 7, 255, 2, 8, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewArena(0)
		a.SetLimit(arenaBase + 6*chunkSize)
		var ref []byte
		next := func() int64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b)
		}
		// addr picks a chunk edge or one end of the mapped region and
		// a small signed offset from it.
		addr := func() Addr {
			var at int64
			switch sel := next(); sel % 3 {
			case 0:
				at = sel / 3 % 7 * chunkSize
			case 1:
				at = int64(len(ref))
			}
			return Addr(arenaBase + at + next()%48 - 24)
		}
		mapped := func(p Addr, n int64) bool {
			return p >= arenaBase && int64(p)-arenaBase+n <= int64(len(ref))
		}
		faulted := func(f func()) (got bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(Fault); !ok {
						panic(r)
					}
					got = true
				}
			}()
			f()
			return false
		}
		expect := func(op string, p Addr, n int64, f func()) bool {
			want := !mapped(p, n)
			if got := faulted(f); got != want {
				t.Fatalf("%s of %d bytes at %v: faulted %v, want %v (mapped %d bytes)", op, n, p, got, want, len(ref))
			}
			return !want
		}
		for ops := 0; len(data) > 0 && ops < 64; ops++ {
			switch next() % 7 {
			case 0: // Grow
				n := next() * next() * 97
				brk := a.Brk()
				got, err := a.Grow(n)
				if err != nil {
					if !errors.Is(err, cclerr.ErrOutOfMemory) || a.Brk() != brk {
						t.Fatalf("Grow(%d): err %v, brk %v -> %v", n, err, brk, a.Brk())
					}
					continue
				}
				if got != brk {
					t.Fatalf("Grow(%d) = %v, want %v", n, got, brk)
				}
				ref = append(ref, make([]byte, int64(a.Brk()-brk))...)
			case 1: // typed store
				p, v, w := addr(), uint64(next())*0x0101010101010101+uint64(next()), []int64{1, 4, 8}[next()%3]
				ok := expect("store", p, w, func() {
					switch w {
					case 1:
						a.Store8(p, uint8(v))
					case 4:
						a.Store32(p, uint32(v))
					default:
						a.Store64(p, v)
					}
				})
				if ok {
					for i := int64(0); i < w; i++ {
						ref[int64(p)-arenaBase+i] = byte(v >> (8 * i))
					}
				}
			case 2: // typed load
				p, w := addr(), []int64{1, 4, 8}[next()%3]
				var got uint64
				if expect("load", p, w, func() {
					switch w {
					case 1:
						got = uint64(a.Load8(p))
					case 4:
						got = uint64(a.Load32(p))
					default:
						got = a.Load64(p)
					}
				}) {
					var want uint64
					for i := int64(0); i < w; i++ {
						want |= uint64(ref[int64(p)-arenaBase+i]) << (8 * i)
					}
					if got != want {
						t.Fatalf("load%d at %v = %#x, want %#x", w*8, p, got, want)
					}
				}
			case 3: // WriteBytes
				p, buf := addr(), make([]byte, next()*next()*5)
				for i := range buf {
					buf[i] = byte(i) ^ byte(p)
				}
				if expect("WriteBytes", p, int64(len(buf)), func() { a.WriteBytes(p, buf) }) {
					copy(ref[int64(p)-arenaBase:], buf)
				}
			case 4: // Memset
				p, b, n := addr(), byte(next()), next()*next()*5
				if expect("Memset", p, n, func() { a.Memset(p, b, n) }) {
					for i := int64(0); i < n; i++ {
						ref[int64(p)-arenaBase+i] = b
					}
				}
			case 5: // Memcpy
				dst, src, n := addr(), addr(), next()*next()*5
				if dst == src || n == 0 { // a no-op, checked or not
					if err := a.Memcpy(dst, src, n); err != nil {
						t.Fatalf("no-op Memcpy(%v, %v, %d) err = %v", dst, src, n, err)
					}
					continue
				}
				if dst < src.Add(n) && src < dst.Add(n) {
					if err := a.Memcpy(dst, src, n); !errors.Is(err, cclerr.ErrInvalidArg) {
						t.Fatalf("overlapping Memcpy(%v, %v, %d) err = %v", dst, src, n, err)
					}
					continue
				}
				ok := mapped(dst, n) && mapped(src, n)
				if got := faulted(func() { _ = a.Memcpy(dst, src, n) }); got == ok {
					t.Fatalf("Memcpy(%v, %v, %d): faulted %v, want %v", dst, src, n, got, !ok)
				}
				if ok {
					copy(ref[int64(dst)-arenaBase:], ref[int64(src)-arenaBase:int64(src)-arenaBase+n])
				}
			case 6: // ReadBytes
				p, buf := addr(), make([]byte, next()*next()*5)
				if expect("ReadBytes", p, int64(len(buf)), func() { a.ReadBytes(p, buf) }) {
					if off := int64(p) - arenaBase; !bytes.Equal(buf, ref[off:off+int64(len(buf))]) {
						t.Fatalf("ReadBytes(%v, %d) differs from the reference", p, len(buf))
					}
				}
			}
		}
		// The whole mapped region matches the reference.
		if a.Size() != int64(len(ref)) {
			t.Fatalf("Size = %d, reference holds %d bytes", a.Size(), len(ref))
		}
		got := make([]byte, len(ref))
		a.ReadBytes(a.Base(), got)
		if !bytes.Equal(got, ref) {
			t.Fatal("arena bytes differ from the reference")
		}
	})
}
