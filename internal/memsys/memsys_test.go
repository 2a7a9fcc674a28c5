package memsys

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ccl/internal/cclerr"
)

func TestNewArenaDefaults(t *testing.T) {
	a := NewArena(0)
	if a.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d, want %d", a.PageSize(), DefaultPageSize)
	}
	if a.Size() != 0 {
		t.Fatalf("new arena Size = %d, want 0", a.Size())
	}
	if a.Base() != Addr(DefaultPageSize) {
		t.Fatalf("Base = %v, want %v", a.Base(), Addr(DefaultPageSize))
	}
}

func TestSbrkGrowsPageGranular(t *testing.T) {
	a := NewArena(4096)
	start := a.Sbrk(1)
	if start != a.Base() {
		t.Fatalf("first Sbrk start = %v, want base %v", start, a.Base())
	}
	if a.Size() != 4096 {
		t.Fatalf("Size after Sbrk(1) = %d, want one page (4096)", a.Size())
	}
	second := a.Sbrk(4097)
	if second != start.Add(4096) {
		t.Fatalf("second extent start = %v, want %v", second, start.Add(4096))
	}
	if a.Size() != 4096+8192 {
		t.Fatalf("Size = %d, want %d", a.Size(), 4096+8192)
	}
}

// TestGuardSeesMappedExtentAndPlacements pins the arena's one fault
// seam: the guard learns each grow's page-rounded extent (what the
// arena maps, not what was asked), CheckPlace reports placements as
// their own event, and each veto carries its operation's sentinel.
func TestGuardSeesMappedExtentAndPlacements(t *testing.T) {
	a := NewArena(1024)
	if err := a.CheckPlace(24); err != nil {
		t.Fatalf("unguarded CheckPlace = %v", err)
	}
	type call struct {
		ev GuardEvent
		n  int64
	}
	var calls []call
	boom := errors.New("vetoed")
	veto := false
	a.SetGuard(func(ev GuardEvent, n int64) error {
		calls = append(calls, call{ev, n})
		if veto {
			return boom
		}
		return nil
	})
	a.Sbrk(1)
	if err := a.CheckPlace(24); err != nil {
		t.Fatalf("CheckPlace = %v", err)
	}
	if want := []call{{GuardGrow, 1024}, {GuardPlace, 24}}; len(calls) != 2 || calls[0] != want[0] || calls[1] != want[1] {
		t.Fatalf("guard saw %v, want %v", calls, want)
	}
	veto = true
	if _, err := a.Grow(1); !errors.Is(err, boom) || !errors.Is(err, cclerr.ErrOutOfMemory) {
		t.Fatalf("vetoed grow err = %v, want ErrOutOfMemory wrapping the veto", err)
	}
	if err := a.CheckPlace(24); !errors.Is(err, boom) || !errors.Is(err, cclerr.ErrPlacementFailed) {
		t.Fatalf("vetoed placement err = %v, want ErrPlacementFailed wrapping the veto", err)
	}
	if a.Size() != 1024 {
		t.Fatalf("vetoed operations changed the mapping: Size = %d", a.Size())
	}
}

func TestSbrkNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sbrk(-1) did not panic")
		}
	}()
	NewArena(0).Sbrk(-1)
}

func TestAlignBrk(t *testing.T) {
	a := NewArena(4096)
	a.Sbrk(100)
	got := a.AlignBrk(1 << 16)
	if int64(got)&(1<<16-1) != 0 {
		t.Fatalf("AlignBrk(64K) returned unaligned %v", got)
	}
	if got != a.Brk() {
		t.Fatalf("AlignBrk returned %v but Brk is %v", got, a.Brk())
	}
	// Already aligned: no growth.
	before := a.Size()
	a.AlignBrk(1 << 16)
	if a.Size() != before {
		t.Fatalf("AlignBrk on aligned brk grew arena by %d bytes", a.Size()-before)
	}
}

func TestAlignBrkBadAlignPanics(t *testing.T) {
	for _, align := range []int64{0, -8, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AlignBrk(%d) did not panic", align)
				}
			}()
			NewArena(0).AlignBrk(align)
		}()
	}
}

func TestTypedRoundTrips(t *testing.T) {
	a := NewArena(0)
	p := a.Sbrk(64)

	a.Store8(p, 0xAB)
	if got := a.Load8(p); got != 0xAB {
		t.Errorf("Load8 = %#x, want 0xAB", got)
	}
	a.Store32(p.Add(4), 0xDEADBEEF)
	if got := a.Load32(p.Add(4)); got != 0xDEADBEEF {
		t.Errorf("Load32 = %#x", got)
	}
	a.Store64(p.Add(8), math.MaxUint64)
	if got := a.Load64(p.Add(8)); got != math.MaxUint64 {
		t.Errorf("Load64 = %#x", got)
	}
	a.StoreInt(p.Add(16), -42)
	if got := a.LoadInt(p.Add(16)); got != -42 {
		t.Errorf("LoadInt = %d, want -42", got)
	}
	a.StoreFloat(p.Add(24), 3.25)
	if got := a.LoadFloat(p.Add(24)); got != 3.25 {
		t.Errorf("LoadFloat = %v, want 3.25", got)
	}
	a.StoreAddr(p.Add(32), p)
	if got := a.LoadAddr(p.Add(32)); got != p {
		t.Errorf("LoadAddr = %v, want %v", got, p)
	}
}

func TestStoreLoadQuick(t *testing.T) {
	a := NewArena(0)
	// Map the 8 bytes a store at the largest uint16 offset touches.
	base := a.Sbrk(1<<16 + 8)
	f := func(off uint16, v uint64) bool {
		p := base.Add(int64(off))
		a.Store64(p, v)
		return a.Load64(p) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjacentStoresDoNotClobber(t *testing.T) {
	a := NewArena(0)
	p := a.Sbrk(24)
	a.Store64(p, 1)
	a.Store64(p.Add(8), 2)
	a.Store64(p.Add(16), 3)
	for i, want := range []uint64{1, 2, 3} {
		if got := a.Load64(p.Add(int64(i) * 8)); got != want {
			t.Errorf("word %d = %d, want %d", i, got, want)
		}
	}
}

func TestOutOfBoundsFaults(t *testing.T) {
	a := NewArena(0)
	p := a.Sbrk(16)
	cases := []struct {
		name string
		f    func()
	}{
		{"nil load", func() { a.Load64(NilAddr) }},
		{"below base", func() { a.Load8(a.Base().Add(-1)) }},
		{"past brk", func() { a.Load64(a.Brk().Add(-4)) }},
		{"way past", func() { a.Store8(p.Add(1<<30), 0) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not fault", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestMemsetMemcpy(t *testing.T) {
	a := NewArena(0)
	src := a.Sbrk(32)
	dst := a.Sbrk(32)
	a.Memset(src, 0x5A, 32)
	a.Memcpy(dst, src, 32)
	for i := int64(0); i < 32; i++ {
		if a.Load8(dst.Add(i)) != 0x5A {
			t.Fatalf("byte %d not copied", i)
		}
	}
	// Zero-length and same-address copies are no-ops.
	a.Memcpy(dst, src, 0)
	a.Memcpy(dst, dst, 32)
}

func TestMemcpyOverlapFails(t *testing.T) {
	a := NewArena(0)
	p := a.Sbrk(64)
	if err := a.Memcpy(p.Add(8), p, 32); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("overlapping Memcpy err = %v, want ErrInvalidArg", err)
	}
	if err := a.Memcpy(p, p.Add(8), 32); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("overlapping Memcpy (dst first) err = %v, want ErrInvalidArg", err)
	}
}

func TestPageHelpers(t *testing.T) {
	a := NewArena(4096)
	p := a.Sbrk(2 * 4096)
	if !a.SamePage(p, p.Add(4095)) {
		t.Error("addresses within one page reported on different pages")
	}
	if a.SamePage(p, p.Add(4096)) {
		t.Error("addresses on adjacent pages reported on the same page")
	}
	if a.PageOf(p)+1 != a.PageOf(p.Add(4096)) {
		t.Error("PageOf not consecutive across a page boundary")
	}
}

func TestAddrHelpers(t *testing.T) {
	if !NilAddr.IsNil() {
		t.Error("NilAddr.IsNil() = false")
	}
	if Addr(8192).IsNil() {
		t.Error("non-nil address reported nil")
	}
	if Addr(100).Add(-50) != Addr(50) {
		t.Error("negative Add broken")
	}
	if Addr(0x1f40).String() != "0x1f40" {
		t.Errorf("String = %q", Addr(0x1f40).String())
	}
}

func TestMappedPredicate(t *testing.T) {
	a := NewArena(0)
	p := a.Sbrk(100) // rounds to one page
	if !a.Mapped(p, DefaultPageSize) {
		t.Error("full first page should be mapped")
	}
	if a.Mapped(p, DefaultPageSize+1) {
		t.Error("mapping should end at brk")
	}
	if a.Mapped(NilAddr, 1) {
		t.Error("nil page should be unmapped")
	}
	if a.Mapped(p, -1) {
		t.Error("negative length should not be mapped")
	}
}
