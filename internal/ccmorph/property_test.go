package ccmorph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/shrink"
)

// buildInsertionBST builds an unbalanced BST by inserting keys in the
// given order (duplicates ignored), allocating nodes as it goes — the
// adversarial topologies (sticks, zig-zags) that complete trees never
// exercise. Returns the root and the number of inserted nodes.
func buildInsertionBST(m *machine.Machine, alloc heap.Allocator, keys []uint32) (memsys.Addr, int64) {
	root := memsys.NilAddr
	var n int64
	for _, key := range keys {
		if root.IsNil() {
			root = newBSTNode(m, alloc, key)
			n++
			continue
		}
		at := root
		for {
			k := m.Load32(at.Add(offKey))
			if key == k {
				break
			}
			off := int64(offLeft)
			if key > k {
				off = offRight
			}
			next := m.LoadAddr(at.Add(off))
			if next.IsNil() {
				m.StoreAddr(at.Add(off), newBSTNode(m, alloc, key))
				n++
				break
			}
			at = next
		}
	}
	return root, n
}

func newBSTNode(m *machine.Machine, alloc heap.Allocator, key uint32) memsys.Addr {
	a := heap.MustAlloc(alloc, 20)
	m.Store32(a.Add(offKey), key)
	m.StoreAddr(a.Add(offLeft), memsys.NilAddr)
	m.StoreAddr(a.Add(offRight), memsys.NilAddr)
	return a
}

// collectInOrder returns keys by in-order walk.
func collectInOrder(m *machine.Machine, root memsys.Addr) []uint32 {
	var keys []uint32
	var walk func(a memsys.Addr)
	walk = func(a memsys.Addr) {
		if a.IsNil() {
			return
		}
		walk(m.LoadAddr(a.Add(offLeft)))
		keys = append(keys, m.Load32(a.Add(offKey)))
		walk(m.LoadAddr(a.Add(offRight)))
	}
	walk(root)
	return keys
}

// checkMorphPreserves builds a BST from the insertion sequence,
// reorganizes it with the default subtree clustering, and returns an
// error if reorganization changed the tree's contents or in-order
// traversal, placed a node across the hot/cold color boundary, or
// lost nodes.
func checkMorphPreserves(keys []uint32, colorFrac float64) error {
	return checkMorphPreservesStrategy(keys, colorFrac, SubtreeCluster)
}

// checkMorphPreservesStrategy is checkMorphPreserves for an explicit
// placement strategy: both orders share the copy-then-commit machinery
// and must satisfy the identical preservation property.
func checkMorphPreservesStrategy(keys []uint32, colorFrac float64, strat Strategy) error {
	if len(keys) == 0 {
		return nil
	}
	m := newMachine()
	alloc := heap.New(m.Arena)
	root, n := buildInsertionBST(m, alloc, keys)
	before := collectInOrder(m, root)

	geo := layout.Geometry{Sets: 64, Assoc: 1, BlockSize: 64}
	region, err := layout.NewRegion(m.Arena, geo, colorFrac)
	if err != nil {
		return err
	}
	newRoot, st, err := Reorganize(m, root, binLayout(20, false), region, strat, nil)
	if err != nil {
		return fmt.Errorf("Reorganize: %w", err)
	}
	after := collectInOrder(m, newRoot)

	if st.Nodes != n {
		return fmt.Errorf("reorganized %d nodes, built %d", st.Nodes, n)
	}
	if len(after) != len(before) {
		return fmt.Errorf("in-order walk: %d keys before, %d after", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			return fmt.Errorf("in-order key %d: %d before, %d after", i, before[i], after[i])
		}
	}
	if !sort.SliceIsSorted(after, func(i, j int) bool { return after[i] < after[j] }) {
		return fmt.Errorf("in-order walk not sorted: %v", after)
	}
	if colorFrac > 0 {
		// No node may straddle the color boundary: clusters are
		// block-aligned and color stripes are block multiples, so
		// every element is entirely hot or entirely cold.
		col, cerr := layout.NewColoring(geo, colorFrac)
		if cerr != nil {
			return fmt.Errorf("NewColoring: %w", cerr)
		}
		var check func(a memsys.Addr) error
		check = func(a memsys.Addr) error {
			if a.IsNil() {
				return nil
			}
			if col.IsHot(a) != col.IsHot(a.Add(20-1)) {
				return fmt.Errorf("node %v straddles the hot/cold boundary (sets %d..%d, hot<%d)",
					a, col.SetOf(a), col.SetOf(a.Add(20-1)), col.HotSets)
			}
			if err := check(m.LoadAddr(a.Add(offLeft))); err != nil {
				return err
			}
			return check(m.LoadAddr(a.Add(offRight)))
		}
		if err := check(newRoot); err != nil {
			return err
		}
	}
	return nil
}

// TestMorphPreservesContentsProperty is the metamorphic property of
// §3.1: reorganization is semantics-preserving. Random insertion
// sequences (including heavy duplication, sorted runs, and tiny
// trees) must come out of ccmorph with identical contents and
// in-order traversal; a violation is reported as a shrunk insertion
// sequence.
func TestMorphPreservesContentsProperty(t *testing.T) {
	fracs := []float64{0, 0.25, 0.5}
	for round, frac := range fracs {
		frac := frac
		shrink.Check(t, int64(100+round), 60,
			func(rng *rand.Rand) []uint32 {
				n := 1 + rng.Intn(300)
				keys := make([]uint32, n)
				span := 1 + rng.Intn(2*n) // duplicates likely when span < n
				for i := range keys {
					keys[i] = uint32(rng.Intn(span))
				}
				if rng.Intn(4) == 0 { // sorted insertions: stick topology
					sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				}
				return keys
			},
			func(keys []uint32) bool {
				return checkMorphPreserves(keys, frac) != nil
			})
	}
}

// TestVEBMorphPreservesContentsProperty is the same metamorphic
// property for the cache-oblivious strategy: the vEB order must also
// be semantics-preserving on every reachable topology — including the
// sticks and zig-zags whose heights defeat clean height-halving — and
// compose with coloring without a node straddling a stripe boundary.
func TestVEBMorphPreservesContentsProperty(t *testing.T) {
	fracs := []float64{0, 0.25, 0.5}
	for round, frac := range fracs {
		frac := frac
		shrink.Check(t, int64(200+round), 60,
			func(rng *rand.Rand) []uint32 {
				n := 1 + rng.Intn(300)
				keys := make([]uint32, n)
				span := 1 + rng.Intn(2*n)
				for i := range keys {
					keys[i] = uint32(rng.Intn(span))
				}
				if rng.Intn(4) == 0 { // sticks: worst case for height halving
					sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				}
				return keys
			},
			func(keys []uint32) bool {
				return checkMorphPreservesStrategy(keys, frac, VEB) != nil
			})
	}
}

// TestMorphShrinksFailingCase proves the shrinking path works on this
// property's input shape: a synthetic "bug" triggered by one key must
// shrink to a single-element insertion sequence.
func TestMorphShrinksFailingCase(t *testing.T) {
	keys := make([]uint32, 150)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		keys[i] = uint32(rng.Intn(1000))
	}
	keys[77] = 424242
	fails := func(ks []uint32) bool {
		if checkMorphPreserves(ks, 0.5) != nil {
			return true // a real bug would shrink the same way
		}
		for _, k := range ks {
			if k == 424242 {
				return true
			}
		}
		return false
	}
	min := shrink.Slice(keys, fails)
	if len(min) != 1 || min[0] != 424242 {
		t.Fatalf("shrunk to %v, want [424242]", min)
	}
}
