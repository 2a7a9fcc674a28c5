package ccmalloc

import (
	"fmt"
	"math/rand"
	"testing"

	"ccl/internal/layout"
	"ccl/internal/memsys"
	"ccl/internal/shrink"
)

// heapOp is one step of a randomized allocator workout. Ref selects
// the hint (for allocs) or the victim (for frees) among live objects,
// reduced modulo the live count at replay time so shrinking a prefix
// never turns a valid op into an out-of-range one.
type heapOp struct {
	Free bool
	Size int64 // alloc only; 0 forces the unhinted path via a nil hint
	Ref  int
}

func (o heapOp) String() string {
	if o.Free {
		return fmt.Sprintf("free(#%d)", o.Ref)
	}
	return fmt.Sprintf("alloc(%d,#%d)", o.Size, o.Ref)
}

// checkHeapOps replays the sequence against a fresh ccmalloc
// instance and returns an error on the first violated invariant:
// live objects must never overlap, every object must lie inside the
// arena's mapped extent, and the allocator's own bookkeeping
// invariants must hold after every mutation.
func checkHeapOps(strategy Strategy, ops []heapOp) error {
	arena := memsys.NewArena(0)
	a, err := New(arena, layout.Geometry{Sets: 16, Assoc: 1, BlockSize: 64}, strategy, nil)
	if err != nil {
		return fmt.Errorf("New: %w", err)
	}
	type obj struct {
		addr memsys.Addr
		size int64
	}
	var live []obj
	for i, op := range ops {
		if op.Free {
			if len(live) == 0 {
				continue
			}
			j := op.Ref % len(live)
			a.Free(live[j].addr)
			live = append(live[:j], live[j+1:]...)
		} else {
			hint := memsys.NilAddr
			if len(live) > 0 && op.Size%3 != 0 { // mix hinted and unhinted
				hint = live[op.Ref%len(live)].addr
			}
			addr, aerr := a.AllocHint(op.Size, hint)
			if aerr != nil || addr.IsNil() {
				return fmt.Errorf("op %d %v: allocation failed: %v", i, op, aerr)
			}
			if !arena.Mapped(addr, op.Size) {
				return fmt.Errorf("op %d %v: object %v+%d not inside the arena", i, op, addr, op.Size)
			}
			for _, o := range live {
				if int64(addr) < int64(o.addr)+o.size && int64(o.addr) < int64(addr)+op.Size {
					return fmt.Errorf("op %d %v: object %v+%d overlaps live %v+%d",
						i, op, addr, op.Size, o.addr, o.size)
				}
			}
			live = append(live, obj{addr, op.Size})
		}
		if err := a.CheckInvariants(); err != nil {
			return fmt.Errorf("op %d %v: %w", i, op, err)
		}
	}
	return nil
}

// TestCCMallocNeverOverlapsProperty is the allocator's metamorphic
// property: under random interleavings of hinted allocations and
// frees, across all three block-selection strategies, no two live
// objects ever share a byte and everything stays inside claimed
// arena pages. Failures are reported as a shrunk op sequence.
func TestCCMallocNeverOverlapsProperty(t *testing.T) {
	for _, s := range []Strategy{Closest, FirstFit, NewBlock} {
		t.Run(s.String(), func(t *testing.T) {
			shrink.Check(t, 21, 25,
				func(rng *rand.Rand) []heapOp {
					ops := make([]heapOp, 1+rng.Intn(400))
					for i := range ops {
						if rng.Intn(3) == 0 {
							ops[i] = heapOp{Free: true, Ref: rng.Intn(1 << 16)}
						} else {
							ops[i] = heapOp{
								Size: 1 + rng.Int63n(80), // crosses block size 64
								Ref:  rng.Intn(1 << 16),
							}
						}
					}
					return ops
				},
				func(ops []heapOp) bool { return checkHeapOps(s, ops) != nil })
		})
	}
}

// TestCCMallocShrinksFailingCase exercises the shrinking path on this
// property's op shape: a synthetic violation tied to one marker op
// must reduce to just that op.
func TestCCMallocShrinksFailingCase(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := make([]heapOp, 120)
	for i := range ops {
		ops[i] = heapOp{Free: rng.Intn(4) == 0, Size: 1 + rng.Int63n(64), Ref: rng.Intn(100)}
	}
	needle := heapOp{Size: 7777, Ref: 0}
	ops[60] = needle
	fails := func(s []heapOp) bool {
		if checkHeapOps(Closest, s) != nil {
			return true
		}
		for _, o := range s {
			if o == needle {
				return true
			}
		}
		return false
	}
	min := shrink.Slice(ops, fails)
	if len(min) != 1 || min[0] != needle {
		t.Fatalf("shrunk to %v, want [%v]", min, needle)
	}
}
