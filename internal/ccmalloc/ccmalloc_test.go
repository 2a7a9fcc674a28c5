package ccmalloc

import (
	"errors"
	"math/rand"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/memsys"
)

// testGeo mirrors the paper's L2: 64-byte blocks. 1024 sets keeps the
// geometry small.
var testGeo = layout.Geometry{Sets: 1024, Assoc: 1, BlockSize: 64}

func newAlloc(s Strategy) (*memsys.Arena, *Allocator) {
	arena := memsys.NewArena(0)
	a, err := New(arena, testGeo, s, nil)
	if err != nil {
		panic(err)
	}
	return arena, a
}

func sameBlock(a, b memsys.Addr) bool {
	return int64(a)/testGeo.BlockSize == int64(b)/testGeo.BlockSize
}

// seedObj returns an object placed in ccmalloc-managed space (via a
// foreign hint), the starting point for co-location chains.
func seedObj(a *Allocator, size int64) memsys.Addr {
	return heap.MustAllocHint(a, size, memsys.Addr(0x10))
}

func TestStrategyString(t *testing.T) {
	if Closest.String() != "closest" || FirstFit.String() != "first-fit" || NewBlock.String() != "new-block" {
		t.Fatal("Strategy.String broken")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should format")
	}
}

func TestHintedAllocSharesBlock(t *testing.T) {
	for _, s := range []Strategy{Closest, FirstFit, NewBlock} {
		_, a := newAlloc(s)
		parent := seedObj(a, 24)
		child := heap.MustAllocHint(a, 24, parent)
		if !sameBlock(parent, child) {
			t.Errorf("%v: child %v not in parent %v's block", s, child, parent)
		}
		if a.Stats().SameBlock != 1 {
			t.Errorf("%v: SameBlock = %d, want 1", s, a.Stats().SameBlock)
		}
	}
}

func TestHintChainFillsBlockThenPage(t *testing.T) {
	_, a := newAlloc(FirstFit)
	arena := a.arena
	prev := seedObj(a, 24)
	first := prev
	samePage := 0
	for i := 0; i < 30; i++ {
		p := heap.MustAllocHint(a, 24, prev)
		if arena.PageOf(p) != arena.PageOf(first) {
			t.Fatalf("alloc %d left the hint page before it was full", i)
		}
		if !sameBlock(p, prev) {
			samePage++
		}
		prev = p
	}
	if samePage == 0 {
		t.Fatal("block never filled; co-location test vacuous")
	}
	s := a.Stats()
	if s.SameBlock == 0 || s.SamePage == 0 {
		t.Fatalf("stats = %+v: want both SameBlock and SamePage placements", s)
	}
}

func TestNilHintUsesUnhintedPath(t *testing.T) {
	_, a := newAlloc(NewBlock)
	p := heap.MustAllocHint(a, 24, memsys.NilAddr)
	q := heap.MustAllocHint(a, 24, memsys.NilAddr)
	if p.IsNil() || q.IsNil() {
		t.Fatal("nil-hint allocation failed")
	}
	if a.Stats().HintedAllocs != 0 {
		t.Fatal("nil hint counted as hinted")
	}
	// Unhinted allocations take the fallback malloc path (the §4.4
	// control experiment's layout): consecutive boundary-tag chunks.
	if q != p.Add(32) { // chunk(24) = 24 + 8 bytes of tags
		t.Fatalf("unhinted allocs not malloc-packed: %v then %v", p, q)
	}
}

func TestForeignHintSeedsPage(t *testing.T) {
	arena, a := newAlloc(Closest)
	foreign := arena.Sbrk(64) // memory not owned by the allocator
	p := heap.MustAllocHint(a, 24, foreign)
	if p.IsNil() {
		t.Fatal("foreign hint broke allocation")
	}
	if a.Stats().Seeded != 1 {
		t.Fatalf("Seeded = %d, want 1", a.Stats().Seeded)
	}
	// A chain hinted off the seeded object now co-locates normally.
	q := heap.MustAllocHint(a, 24, p)
	if !sameBlock(p, q) {
		t.Fatalf("chain after seed not co-located: %v then %v", p, q)
	}
}

func TestClosestPrefersNearbyBlocks(t *testing.T) {
	_, a := newAlloc(Closest)
	// Fill the hint block completely with 64 bytes.
	hint := seedObj(a, 64)
	got := heap.MustAllocHint(a, 24, hint)
	d := int64(got) - int64(hint)
	if d < 0 {
		d = -d
	}
	if d >= 2*testGeo.BlockSize {
		t.Fatalf("closest placed %v, %d bytes from hint %v", got, d, hint)
	}
	if a.Stats().SamePage != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestNewBlockReservesRemainder(t *testing.T) {
	_, a := newAlloc(NewBlock)
	hint := seedObj(a, 64) // fills its whole cache block
	// Allocate with a full-block hint: must go to an unused block.
	p := heap.MustAllocHint(a, 24, hint)
	if sameBlock(p, hint) {
		t.Fatal("hint block was full; p should be elsewhere")
	}
	// Remainder of p's block is reserved: an unhinted allocation
	// must not land in it...
	q := heap.MustAlloc(a, 24)
	if sameBlock(p, q) {
		t.Fatal("unhinted allocation consumed a new-block reservation")
	}
	// ...but a hinted allocation targeting p may.
	r := heap.MustAllocHint(a, 24, p)
	if !sameBlock(p, r) {
		t.Fatalf("hinted allocation should join p's reserved block: p=%v r=%v", p, r)
	}
}

func TestNewBlockSpreadsWhenHintBlocksFull(t *testing.T) {
	_, a := newAlloc(NewBlock)
	// Chain of 64-byte objects: each fills a block, so every hinted
	// allocation takes a fresh block — the source of new-block's
	// memory overhead (§4.4).
	p := seedObj(a, 64)
	blocks := map[int64]bool{int64(p) / 64: true}
	for i := 0; i < 20; i++ {
		p = heap.MustAllocHint(a, 64, p)
		blocks[int64(p)/64] = true
	}
	if len(blocks) != 21 {
		t.Fatalf("expected 21 distinct blocks, got %d", len(blocks))
	}
}

func TestFreeAndReuseWithinBlock(t *testing.T) {
	_, a := newAlloc(FirstFit)
	parent := seedObj(a, 24)
	child := heap.MustAllocHint(a, 24, parent)
	a.Free(child)
	again := heap.MustAllocHint(a, 24, parent)
	if again != child {
		t.Fatalf("freed co-located slot not reused: got %v, want %v", again, child)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeNilNoop(t *testing.T) {
	_, a := newAlloc(FirstFit)
	a.Free(memsys.NilAddr)
	if a.Stats().Frees != 0 {
		t.Fatal("Free(nil) counted")
	}
}

func TestDoubleFreeFails(t *testing.T) {
	_, a := newAlloc(FirstFit)
	p := seedObj(a, 24)
	if err := a.Free(p); err != nil {
		t.Fatalf("first Free: %v", err)
	}
	if err := a.Free(p); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("double free err = %v, want ErrInvalidArg", err)
	}
}

func TestUsableSize(t *testing.T) {
	_, a := newAlloc(FirstFit)
	p := heap.MustAlloc(a, 20) // rounds to 24
	got, err := a.UsableSize(p)
	if err != nil {
		t.Fatalf("UsableSize: %v", err)
	}
	if got != 24 {
		t.Fatalf("UsableSize = %d, want 24", got)
	}
}

func TestLargeAllocation(t *testing.T) {
	arena, a := newAlloc(FirstFit)
	big := heap.MustAlloc(a, 3*arena.PageSize())
	if !arena.Mapped(big, 3*arena.PageSize()) {
		t.Fatal("large allocation not mapped")
	}
	if int64(big)%arena.PageSize() != 0 {
		t.Fatal("large allocation not page aligned")
	}
	if u, err := a.UsableSize(big); err != nil || u < 3*arena.PageSize() {
		t.Fatalf("large UsableSize = %d (%v)", u, err)
	}
	before := a.HeapBytes()
	a.Free(big)
	// Freed large pages become reusable small-object pages.
	if a.HeapBytes() != before {
		t.Fatalf("HeapBytes changed on large free: %d -> %d", before, a.HeapBytes())
	}
	// A hinted small allocation recycles the freed pages via the
	// empty-page pool.
	p := seedObj(a, 24)
	if arena.PageOf(p) < arena.PageOf(big) || arena.PageOf(p) >= arena.PageOf(big)+3 {
		t.Fatal("hinted allocation did not reuse freed large pages")
	}
}

func TestHeapBytesGrowsByPages(t *testing.T) {
	arena, a := newAlloc(FirstFit)
	a.Alloc(24)
	if a.HeapBytes() != arena.PageSize() {
		t.Fatalf("HeapBytes = %d, want one page", a.HeapBytes())
	}
}

func TestStatsAccounting(t *testing.T) {
	_, a := newAlloc(Closest)
	p := heap.MustAlloc(a, 30)
	a.AllocHint(30, p)
	a.Free(p)
	s := a.Stats()
	if s.Allocs != 2 || s.Frees != 1 || s.HintedAllocs != 1 || s.BytesRequested != 60 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAllocZeroFails(t *testing.T) {
	_, a := newAlloc(Closest)
	if _, err := a.Alloc(0); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("Alloc(0) err = %v, want ErrInvalidArg", err)
	}
}

func TestClockCharged(t *testing.T) {
	arena := memsys.NewArena(0)
	var total int64
	a, err := New(arena, testGeo, NewBlock, tickFunc(func(n int64) { total += n }))
	if err != nil {
		t.Fatal(err)
	}
	p := heap.MustAlloc(a, 24)
	a.Free(p)
	if total != AllocCost+FreeCost {
		t.Fatalf("charged %d cycles, want %d", total, AllocCost+FreeCost)
	}
}

type tickFunc func(int64)

func (f tickFunc) Tick(n int64) { f(n) }

// TestRandomWorkload cross-checks the allocator against a shadow
// model: no live objects overlap, hints never break correctness, and
// page bookkeeping stays coherent.
func TestRandomWorkload(t *testing.T) {
	for _, strat := range []Strategy{Closest, FirstFit, NewBlock} {
		_, a := newAlloc(strat)
		rng := rand.New(rand.NewSource(7))
		type obj struct {
			addr memsys.Addr
			size int64
		}
		var live []obj
		for step := 0; step < 3000; step++ {
			if len(live) > 0 && rng.Intn(100) < 35 {
				i := rng.Intn(len(live))
				a.Free(live[i].addr)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := int64(8 + rng.Intn(80))
			var hint memsys.Addr
			if len(live) > 0 && rng.Intn(100) < 70 {
				hint = live[rng.Intn(len(live))].addr
			}
			p := heap.MustAllocHint(a, size, hint)
			rounded := (size + 7) &^ 7
			for _, o := range live {
				if p < o.addr.Add(o.size) && o.addr < p.Add(rounded) {
					t.Fatalf("%v step %d: [%v,+%d) overlaps [%v,+%d)", strat, step, p, rounded, o.addr, o.size)
				}
			}
			live = append(live, obj{p, rounded})
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
	}
}

// TestColocationRate verifies the core property the paper relies on:
// for list-like hint chains of small nodes, most nodes land in the
// same cache block as their predecessor.
func TestColocationRate(t *testing.T) {
	for _, strat := range []Strategy{Closest, FirstFit, NewBlock} {
		_, a := newAlloc(strat)
		prev := heap.MustAlloc(a, 24)
		colocated := 0
		const n = 299
		for i := 0; i < n; i++ {
			p := heap.MustAllocHint(a, 24, prev)
			if sameBlock(p, prev) {
				colocated++
			}
			prev = p
		}
		// 24-byte nodes in 64-byte blocks: 2 of every 3 nodes can
		// share the previous node's block at best (k=2 after the
		// first fills a fresh block under new-block).
		if rate := float64(colocated) / n; rate < 0.4 {
			t.Errorf("%v: co-location rate %.2f too low", strat, rate)
		}
	}
}
