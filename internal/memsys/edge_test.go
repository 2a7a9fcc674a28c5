package memsys

import (
	"errors"
	"math"
	"testing"

	"ccl/internal/cclerr"
)

// Edge-of-address-space behaviour. The 32-bit ceiling is exercised by
// requesting growth past the limit, never by mapping 4 GiB of host
// memory: a rejected Grow allocates nothing.

func TestGrowPastAddrSpaceLimitFailsTyped(t *testing.T) {
	a := NewArena(0)
	brk, size := a.Brk(), a.Size()
	if _, err := a.Grow(AddrSpaceLimit); !errors.Is(err, cclerr.ErrOutOfMemory) {
		t.Fatalf("Grow(AddrSpaceLimit) err = %v, want ErrOutOfMemory", err)
	}
	if a.Brk() != brk || a.Size() != size {
		t.Fatal("rejected grow changed the mapped extent")
	}
	// One byte past a whole-page fit is also rejected: page rounding
	// pushes the request to the ceiling, and the break starts past
	// zero, so base + request crosses the limit.
	if _, err := a.Grow(AddrSpaceLimit - a.PageSize() + 1); !errors.Is(err, cclerr.ErrOutOfMemory) {
		t.Fatalf("near-limit grow err = %v, want ErrOutOfMemory", err)
	}
	if a.Brk() != brk {
		t.Fatal("near-limit rejected grow changed the mapped extent")
	}
}

// A request near math.MaxInt64 must be compared with the room left
// before it is rounded to pages: rounding first overflows to a
// negative extent that passes the limit check.
func TestGrowNearMaxInt64FailsTyped(t *testing.T) {
	a := NewArena(0)
	a.Sbrk(1)
	brk, size := a.Brk(), a.Size()
	for _, n := range []int64{math.MaxInt64, math.MaxInt64 - 100, math.MaxInt64 - a.PageSize() + 2} {
		if _, err := a.Grow(n); !errors.Is(err, cclerr.ErrOutOfMemory) {
			t.Fatalf("Grow(%d) err = %v, want ErrOutOfMemory", n, err)
		}
		if a.Brk() != brk || a.Size() != size {
			t.Fatalf("rejected Grow(%d) moved the break %v -> %v, size %d -> %d", n, brk, a.Brk(), size, a.Size())
		}
	}
}

func TestSetLimitExhaustionAndRecovery(t *testing.T) {
	a := NewArena(0)
	a.SetLimit(int64(a.Base()) + 2*a.PageSize())
	if _, err := a.Grow(a.PageSize()); err != nil {
		t.Fatalf("grow within the lowered limit: %v", err)
	}
	if _, err := a.Grow(2 * a.PageSize()); !errors.Is(err, cclerr.ErrOutOfMemory) {
		t.Fatalf("grow past the lowered limit err = %v, want ErrOutOfMemory", err)
	}
	// Restoring the limit makes the same request succeed: exhaustion
	// is a property of the limit, not a latched arena state.
	a.SetLimit(AddrSpaceLimit)
	if _, err := a.Grow(2 * a.PageSize()); err != nil {
		t.Fatalf("grow after restoring the limit: %v", err)
	}
}

func TestSetLimitClampsToAddrSpace(t *testing.T) {
	a := NewArena(0)
	a.SetLimit(AddrSpaceLimit * 4)
	if a.Limit() != AddrSpaceLimit {
		t.Fatalf("Limit = %d, want clamped to %d", a.Limit(), AddrSpaceLimit)
	}
}

func TestGrowZeroIsANoOp(t *testing.T) {
	a := NewArena(0)
	brk := a.Brk()
	p, err := a.Grow(0)
	if err != nil {
		t.Fatalf("Grow(0): %v", err)
	}
	if p != brk || a.Brk() != brk {
		t.Fatalf("Grow(0) moved the break: returned %v, brk %v -> %v", p, brk, a.Brk())
	}
}

func TestAlignToLargeAlignment(t *testing.T) {
	a := NewArena(0)
	a.Sbrk(100) // leave the break unaligned relative to big powers of two
	const align = 1 << 20
	brk, err := a.AlignTo(align)
	if err != nil {
		t.Fatalf("AlignTo(%d): %v", align, err)
	}
	if int64(brk)&(align-1) != 0 {
		t.Fatalf("break %v not %d-aligned", brk, align)
	}
	if next, err := a.Grow(8); err != nil || int64(next)&(align-1) != 0 {
		t.Fatalf("next grow at %v (err %v) not aligned", next, err)
	}
}

func TestAlignToPropagatesLimitExhaustion(t *testing.T) {
	a := NewArena(0)
	a.SetLimit(int64(a.Base()) + 4*a.PageSize())
	if _, err := a.AlignTo(1 << 20); !errors.Is(err, cclerr.ErrOutOfMemory) {
		t.Fatalf("AlignTo past the limit err = %v, want ErrOutOfMemory", err)
	}
}
