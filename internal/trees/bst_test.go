package trees

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/memsys"

	"ccl/internal/cache"
	"ccl/internal/heap"
	"ccl/internal/machine"
)

func TestOrderString(t *testing.T) {
	if RandomOrder.String() != "random-clustered" ||
		DepthFirstOrder.String() != "depth-first-clustered" ||
		LevelOrder.String() != "level-clustered" {
		t.Fatal("Order.String broken")
	}
	if Order(7).String() == "" {
		t.Fatal("unknown order should format")
	}
}

func TestBuildProducesSearchableBST(t *testing.T) {
	for _, order := range []Order{RandomOrder, DepthFirstOrder, LevelOrder} {
		m := machine.NewScaled(64)
		alloc := heap.New(m.Arena)
		tr := MustBuild(m, alloc, 500, order, 42)
		if tr.N() != 500 {
			t.Fatalf("%v: N = %d", order, tr.N())
		}
		if err := tr.CheckSearchable(); err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if tr.Search(0) || tr.Search(501) {
			t.Fatalf("%v: found absent key", order)
		}
	}
}

func TestBuildSingleKey(t *testing.T) {
	m := machine.NewScaled(64)
	tr := MustBuild(m, heap.New(m.Arena), 1, RandomOrder, 1)
	if !tr.Search(1) || tr.Search(2) {
		t.Fatal("single-key tree broken")
	}
}

func TestBuildZeroFails(t *testing.T) {
	m := machine.NewScaled(64)
	if _, err := Build(m, heap.New(m.Arena), 0, RandomOrder, 1); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("Build(0) err = %v, want ErrInvalidArg", err)
	}
}

func TestDepthFirstOrderIsSequential(t *testing.T) {
	m := machine.NewScaled(64)
	alloc := heap.New(m.Arena)
	tr := MustBuild(m, alloc, 127, DepthFirstOrder, 1)
	// Walking the left spine of a preorder layout must read
	// ascending, tightly packed addresses.
	n := tr.Root()
	prev := n
	for {
		next := m.Arena.LoadAddr(n.Add(bstOffLeft))
		if next.IsNil() {
			break
		}
		if next <= prev {
			t.Fatalf("preorder layout: left child %v not after parent %v", next, prev)
		}
		if int64(next)-int64(prev) > 64 {
			t.Fatalf("preorder layout: gap %d too large", int64(next)-int64(prev))
		}
		prev, n = next, next
	}
}

func TestMorphKeepsSemantics(t *testing.T) {
	m := machine.NewScaled(64)
	alloc := heap.New(m.Arena)
	tr := MustBuild(m, alloc, 1000, RandomOrder, 7)
	st, err := tr.Morph(0.5, func(a memsys.Addr) { alloc.Free(a) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 1000 {
		t.Fatalf("morphed %d nodes, want 1000", st.Nodes)
	}
	if st.NodesPerBlk != 3 {
		t.Fatalf("k = %d, want 3", st.NodesPerBlk)
	}
	if err := tr.CheckSearchable(); err != nil {
		t.Fatal(err)
	}
	if tr.Search(0) || tr.Search(1001) {
		t.Fatal("morphed tree finds absent keys")
	}
}

// Morph's host allocations grow with the logarithm of the tree, not
// with its size: the snapshot and cluster lists are flat arrays, and
// the arena grows in whole chunks. A tree sixteen times larger may
// cost at most twice the allocations (an allocation per node or per
// cluster would cost sixteen times).
func TestMorphAllocationsSublinear(t *testing.T) {
	morphAllocs := func(n int64) uint64 {
		m := machine.NewScaled(16)
		tr := MustBuild(m, heap.New(m.Arena), n, RandomOrder, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tr.Morph(0.5, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := morphAllocs(1<<10-1), morphAllocs(1<<14-1)
	t.Logf("Morph allocations: %d at 1,023 nodes, %d at 16,383", small, large)
	if large > 2*small {
		t.Fatalf("Morph of 16,383 nodes made %d allocations, more than twice the %d of 1,023 nodes", large, small)
	}
}

// greedySearch is Search with Luk & Mowry greedy software
// prefetching and work busy cycles per visited node: each visit
// loads and prefetches both children, so the next level's fetch
// overlaps the node's work (§4.4's S/W prefetch scheme). With
// prefetch off it is Search plus the work.
func greedySearch(tr *BST, key uint32, work int64, prefetch bool) bool {
	m := tr.m
	n := tr.root
	for !n.IsNil() {
		m.Tick(CompareCost)
		k := m.Load32(n.Add(bstOffKey))
		if key == k {
			return true
		}
		var next memsys.Addr
		if prefetch {
			l := m.LoadAddr(n.Add(bstOffLeft))
			r := m.LoadAddr(n.Add(bstOffRight))
			m.Prefetch(l)
			m.Prefetch(r)
			if key < k {
				next = l
			} else {
				next = r
			}
		} else if key < k {
			next = m.LoadAddr(n.Add(bstOffLeft))
		} else {
			next = m.LoadAddr(n.Add(bstOffRight))
		}
		m.Tick(work)
		n = next
	}
	return false
}

// TestPrefetchStallReduction pins the software-prefetch timing model
// on a pointer chase: greedy prefetch always reduces load stalls, but
// with no per-node work the issue overhead eats the gain (why the
// paper's microbenchmark doesn't prefetch); with real per-node work
// to overlap, prefetching wins end to end (why it is competitive on
// Olden, Figure 7).
func TestPrefetchStallReduction(t *testing.T) {
	const n = 1<<14 - 1
	const searches = 1500

	run := func(work int64, prefetch bool) (total, stall int64) {
		// A TLB-less machine isolates the prefetch-vs-work overlap
		// being tested (TLB walks would add overlapping work).
		cfg := cache.ScaledHierarchy(16)
		cfg.TLB.Entries = 0
		m := machine.New(cfg)
		tr := MustBuild(m, heap.New(m.Arena), n, RandomOrder, 13)
		rng := rand.New(rand.NewSource(9))
		m.ResetStats()
		for i := 0; i < searches; i++ {
			if !greedySearch(tr, uint32(rng.Int63n(n))+1, work, prefetch) {
				t.Fatal("search missed a present key")
			}
		}
		s := m.Stats()
		return s.TotalCycles(), s.LoadStallCycles
	}

	// Bare pointer chase: issue overhead and wrong-path pollution
	// (direct-mapped caches) make prefetch a mild loss.
	plainTotal, _ := run(0, false)
	prefTotal, _ := run(0, true)
	if prefTotal <= plainTotal {
		t.Errorf("bare chase: prefetch (%d) unexpectedly beat plain (%d)", prefTotal, plainTotal)
	}
	if float64(prefTotal) > 1.15*float64(plainTotal) {
		t.Errorf("prefetch overhead too high on bare chase: %d vs %d", prefTotal, plainTotal)
	}

	// With 40 cycles of per-node work, the prefetch distance is
	// long enough to win outright, and stalls shrink markedly.
	workTotal, workStall := run(40, false)
	workPrefTotal, workPrefStall := run(40, true)
	if workPrefTotal >= workTotal {
		t.Errorf("with per-node work, prefetch (%d) should beat plain (%d)", workPrefTotal, workTotal)
	}
	if float64(workPrefStall) > 0.8*float64(workStall) {
		t.Errorf("prefetch stall %d not well below plain stall %d", workPrefStall, workStall)
	}
}
