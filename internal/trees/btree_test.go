package trees

import (
	"errors"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// newBTree is the test-local fail-fast constructor: geometry here is
// always valid, so an error is a harness bug.
func newBTree(t *testing.T, m *machine.Machine, colorFrac float64) *BTree {
	t.Helper()
	bt, err := NewBTree(m, colorFrac)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// bulkLoad is the fail-fast BulkLoad wrapper for valid parameters.
func bulkLoad(t *testing.T, bt *BTree, n int64, fill float64) {
	t.Helper()
	if err := bt.BulkLoad(n, fill); err != nil {
		t.Fatal(err)
	}
}

func TestMaxKeysFor(t *testing.T) {
	if got := MaxKeysFor(64); got != 6 {
		t.Errorf("MaxKeysFor(64) = %d, want 6", got)
	}
	if got := MaxKeysFor(128); got != 14 {
		t.Errorf("MaxKeysFor(128) = %d, want 14", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("tiny block did not panic")
		}
	}()
	MaxKeysFor(16)
}

func TestBTreeNodeFitsBlock(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0)
	// leaf flag is the last field; it must end within the block.
	if bt.leafOff()+4 > bt.blockSize {
		t.Fatalf("node layout (%d bytes) exceeds block (%d)", bt.leafOff()+4, bt.blockSize)
	}
}

func TestBulkLoadSearchable(t *testing.T) {
	for _, n := range []int64{1, 2, 4, 5, 31, 100, 1000, 4097} {
		m := machine.NewScaled(64)
		bt := newBTree(t, m, 0)
		bulkLoad(t, bt, n, 0.67)
		if bt.N() != n {
			t.Fatalf("n=%d: N() = %d", n, bt.N())
		}
		if err := bt.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := int64(1); k <= n; k++ {
			if !bt.Search(uint32(k)) {
				t.Fatalf("n=%d: key %d not found", n, k)
			}
		}
		if bt.Search(0) || bt.Search(uint32(n)+1) {
			t.Fatalf("n=%d: found absent key", n)
		}
	}
}

func TestBulkLoadFillAffectsFootprintAndHeight(t *testing.T) {
	const n = 4096
	mFull := machine.NewScaled(64)
	full := newBTree(t, mFull, 0)
	bulkLoad(t, full, n, 1.0)

	mSlack := machine.NewScaled(64)
	slack := newBTree(t, mSlack, 0)
	bulkLoad(t, slack, n, 0.6)

	if slack.HeapBytes() <= full.HeapBytes() {
		t.Errorf("fill 0.6 (%d bytes) should use more space than fill 1.0 (%d)",
			slack.HeapBytes(), full.HeapBytes())
	}
	if slack.Height() < full.Height() {
		t.Errorf("slack tree height %d < full tree height %d", slack.Height(), full.Height())
	}
}

func TestBulkLoadValidation(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0)
	for _, f := range []func() error{
		func() error { return bt.BulkLoad(0, 0.5) },
		func() error { return bt.BulkLoad(10, 0) },
		func() error { return bt.BulkLoad(10, 1.5) },
	} {
		if err := f(); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Errorf("invalid BulkLoad err = %v, want ErrInvalidArg", err)
		}
	}
	bulkLoad(t, bt, 10, 0.5)
	if err := bt.BulkLoad(10, 0.5); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Errorf("double BulkLoad err = %v, want ErrInvalidArg", err)
	}
}

func TestColoredBTreeRootIsHot(t *testing.T) {
	m := machine.NewScaled(16)
	bt := newBTree(t, m, 0.5)
	bulkLoad(t, bt, 1<<14, 0.67)
	col, err := layout.NewColoring(layout.FromLevel(m.Cache.LastLevel()), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !col.IsHot(bt.root) {
		t.Fatalf("root %v (set %d) not hot", bt.root, col.SetOf(bt.root))
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeNodesBlockAligned(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0.5)
	bulkLoad(t, bt, 500, 0.67)
	seen := 0
	var dfs func(a memsys.Addr)
	dfs = func(a memsys.Addr) {
		if int64(a)%bt.blockSize != 0 {
			t.Fatalf("node at %v not block aligned", a)
		}
		seen++
		if bt.rawLeaf(a) {
			return
		}
		for i := 0; i <= bt.rawCount(a); i++ {
			dfs(bt.rawChild(a, i))
		}
	}
	dfs(bt.root)
	if seen < 100 {
		t.Fatalf("walked only %d nodes", seen)
	}
}

// TestBulkLoadVetoRewindsHotBudget: a vetoed BulkLoad gives back the
// hot budget its abandoned nodes were charged, so the reload colors
// exactly as a load into a fresh tree does — root hot, same budget
// left. Vetoing the last placement is the worst case: every node but
// one was placed, which spends the whole hot budget before the abort.
func TestBulkLoadVetoRewindsHotBudget(t *testing.T) {
	const keys, fill = 500, 0.7
	// vetoNth returns a guard vetoing the n-th placement (never, for
	// n = 0) and the count of placements it has seen.
	vetoNth := func(n int) (memsys.Guard, *int) {
		seen := new(int)
		return func(ev memsys.GuardEvent, _ int64) error {
			if ev != memsys.GuardPlace {
				return nil
			}
			*seen++
			if *seen == n {
				return errors.New("veto")
			}
			return nil
		}, seen
	}

	m := machine.NewScaled(64)
	guard, placements := vetoNth(0)
	m.Arena.SetGuard(guard)
	clean := newBTree(t, m, 0.5)
	bulkLoad(t, clean, keys, fill)
	col, ok := clean.region.Coloring()
	if !ok {
		t.Fatal("colored B-tree reports no coloring")
	}
	if !col.IsHot(clean.root) {
		t.Fatalf("unvetoed load's root %v is not hot", clean.root)
	}

	m = machine.NewScaled(64)
	guard, _ = vetoNth(*placements)
	m.Arena.SetGuard(guard)
	bt := newBTree(t, m, 0.5)
	budget := bt.region.HotLeft()
	if err := bt.BulkLoad(keys, fill); !errors.Is(err, cclerr.ErrPlacementFailed) {
		t.Fatalf("vetoed BulkLoad err = %v, want ErrPlacementFailed", err)
	}
	if got := bt.region.HotLeft(); got != budget {
		t.Fatalf("vetoed BulkLoad left %d of %d bytes of hot budget: the abandoned nodes kept their charge", got, budget)
	}
	bulkLoad(t, bt, keys, fill)
	if !col.IsHot(bt.root) {
		t.Fatalf("reload's root %v (set %d) is not hot", bt.root, col.SetOf(bt.root))
	}
	if got, want := bt.region.HotLeft(), clean.region.HotLeft(); got != want {
		t.Fatalf("reload left %d bytes of hot budget, a clean load %d", got, want)
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
