package ccl_test

import (
	"errors"
	"testing"

	"ccl"
)

// The facade tests exercise the public API exactly as a downstream
// user would, without touching internal packages.

func TestFacadeQuickstartFlow(t *testing.T) {
	m := ccl.NewPaperMachine()
	alloc := must(ccl.NewCCMalloc(m, ccl.NewBlock))

	head := must(alloc.Alloc(12))            // unhinted: served by the malloc fallback
	first := must(alloc.AllocHint(12, head)) // seeds ccmalloc space near the chain
	cell := must(alloc.AllocHint(12, first)) // co-located with its predecessor
	if head.IsNil() || first.IsNil() || cell.IsNil() {
		t.Fatal("allocation failed")
	}
	blk := must(ccl.NewRegion(m, 0)).Geometry().BlockSize
	if int64(first)/blk != int64(cell)/blk {
		t.Fatalf("hinted allocation not co-located: %v vs %v", first, cell)
	}

	m.StoreAddr(head, cell)
	m.Store32(cell.Add(4), 7)
	if m.Load32(m.LoadAddr(head).Add(4)) != 7 {
		t.Fatal("pointer round-trip failed")
	}
	if m.Stats().TotalCycles() == 0 {
		t.Fatal("no cycles charged")
	}
}

func TestFacadeTreeAndMorph(t *testing.T) {
	m := ccl.NewScaledMachine(32)
	tr := must(ccl.BuildBST(m, ccl.NewMalloc(m), 2000, ccl.RandomOrder, 1))
	st := must(tr.Morph(0.5, nil))
	if st.Nodes != 2000 {
		t.Fatalf("morphed %d nodes", st.Nodes)
	}
	for _, k := range []uint32{1, 1000, 2000} {
		if !tr.Search(k) {
			t.Fatalf("key %d lost after Morph", k)
		}
	}

	bt := must(ccl.NewBTree(m, 0.5))
	if err := bt.BulkLoad(500, 0.67); err != nil {
		t.Fatal(err)
	}
	if !bt.Search(250) || bt.Search(501) {
		t.Fatal("B-tree search broken through facade")
	}
}

func TestFacadeReorganizeCustomStructure(t *testing.T) {
	m := ccl.NewScaledMachine(32)
	alloc := ccl.NewMalloc(m)

	// Three-node list: value@0, next@4.
	mk := func(v uint32) ccl.Addr {
		p := must(alloc.Alloc(8))
		m.Store32(p, v)
		m.StoreAddr(p.Add(4), ccl.NilAddr)
		return p
	}
	a, b, c := mk(1), mk(2), mk(3)
	m.StoreAddr(a.Add(4), b)
	m.StoreAddr(b.Add(4), c)

	lay := ccl.StructureLayout{
		NodeSize: 8,
		MaxKids:  1,
		Kid: func(m *ccl.Machine, n ccl.Addr, _ int) ccl.Addr {
			return m.LoadAddr(n.Add(4))
		},
		SetKid: func(m *ccl.Machine, n ccl.Addr, _ int, kid ccl.Addr) {
			m.StoreAddr(n.Add(4), kid)
		},
	}
	region := must(ccl.NewRegion(m, 0.5))
	newHead, st, err := ccl.Reorganize(m, a, lay, region, ccl.SubtreeCluster, func(a ccl.Addr) { alloc.Free(a) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 3 {
		t.Fatalf("morphed %d nodes, want 3", st.Nodes)
	}
	want := uint32(1)
	for n := newHead; !n.IsNil(); n = m.LoadAddr(n.Add(4)) {
		if m.Load32(n) != want {
			t.Fatalf("value %d, want %d", m.Load32(n), want)
		}
		want++
	}
	if want != 4 {
		t.Fatal("list truncated by reorganization")
	}
}

func TestFacadeModel(t *testing.T) {
	p := ccl.PaperParams()
	if sp := ccl.Speedup(p, 1, 1, 1, 0.1); sp <= 1 {
		t.Fatalf("speedup = %v", sp)
	}
	ct := ccl.CTreeModel{N: 1 << 20, K: 3, Sets: 16384, Assoc: 1, HotFrac: 0.5}
	if m := ct.MissRate(); m <= 0 || m >= 1 {
		t.Fatalf("C-tree miss rate = %v", m)
	}
	loc := ccl.Locality{D: 20, K: 2, Rs: 10}
	if loc.MissRate() != 0.25 {
		t.Fatalf("Locality miss rate = %v", loc.MissRate())
	}
}

func TestFacadeErrorTaxonomy(t *testing.T) {
	// Every exported sentinel must carry a class label, and the
	// serving sentinels must be distinct from the structural ones.
	for _, tc := range []struct {
		err  error
		want string
	}{
		{ccl.ErrOutOfMemory, "out-of-memory"},
		{ccl.ErrOverloaded, "overloaded"},
		{ccl.ErrDeadlineExceeded, "deadline-exceeded"},
		{ccl.ErrBudgetExceeded, "budget-exceeded"},
	} {
		if got := ccl.ErrorClass(tc.err); got != tc.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
	if errors.Is(ccl.ErrBudgetExceeded, ccl.ErrOutOfMemory) {
		t.Error("budget-exceeded must not alias out-of-memory")
	}
}

func TestFacadeCacheConfigs(t *testing.T) {
	if ccl.PaperCache().Levels[1].Size != 1<<20 {
		t.Fatal("paper L2 should be 1MB")
	}
	if ccl.RSIMCache().Levels[1].BlockSize != 128 {
		t.Fatal("RSIM line should be 128B")
	}
	m := ccl.NewMachine(ccl.RSIMCache())
	if m.Cache.LastLevel().Assoc != 2 {
		t.Fatal("RSIM L2 should be 2-way")
	}
}
