// Package trees implements the tree variants of the paper's
// microbenchmark (§4.2, Figure 5; §5.4, Figure 10):
//
//   - balanced binary search trees whose nodes are placed in random,
//     depth-first, or level allocation order over the baseline heap;
//   - the "transparent C-tree": the same tree reorganized by ccmorph
//     (subtree clustering + coloring);
//   - an in-core B-tree with block-sized nodes, colored to reduce
//     cache conflicts.
//
// All variants store 20-byte elements (4-byte key, two pointers) in
// the simulated address space, mirroring the paper's ~21-byte nodes
// that pack k=3 to a 64-byte L2 block.
package trees

import (
	"fmt"
	"math/rand"

	"ccl/internal/cclerr"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// BST node layout (4-byte simulated pointers): a 4-byte key, two
// child pointers, and an 8-byte satellite value, giving the paper's
// ~20-byte tree element with k = 3 per 64-byte L2 block (§5.4).
const (
	bstOffKey   = 0  // uint32
	bstOffLeft  = 4  // Addr (4 bytes)
	bstOffRight = 8  // Addr (4 bytes)
	bstOffValue = 12 // uint64 satellite payload
	// BSTNodeSize is the element size e of the microbenchmark tree.
	BSTNodeSize = 20
)

// CompareCost is the busy-cycle charge per key comparison; it stands
// in for the compare/branch instructions of a search step.
const CompareCost = 2

// Order selects the allocation order of tree nodes — the only thing
// that differs between the Figure 5 binary-tree variants.
type Order int

const (
	// RandomOrder allocates nodes in random order: the paper's
	// "randomly clustered" baseline, the layout a tree built by
	// random insertions gets.
	RandomOrder Order = iota
	// DepthFirstOrder allocates nodes in preorder: the layout a
	// depth-first construction produces.
	DepthFirstOrder
	// LevelOrder allocates nodes level by level.
	LevelOrder
)

// String names the order as Figure 5 does.
func (o Order) String() string {
	switch o {
	case RandomOrder:
		return "random-clustered"
	case DepthFirstOrder:
		return "depth-first-clustered"
	case LevelOrder:
		return "level-clustered"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// BST is a balanced binary search tree over the simulated heap,
// holding keys 1..N.
type BST struct {
	m    *machine.Machine
	root memsys.Addr
	n    int64
}

// shape is the host-side topology scratch used during construction.
type shape struct {
	key         uint32
	left, right int // indices into the node slice, -1 = nil
}

// buildShape lays out a balanced BST over keys [lo, hi] and returns
// the root index. Nodes are appended in preorder.
func buildShape(nodes *[]shape, lo, hi uint32) int {
	if lo > hi {
		return -1
	}
	mid := lo + (hi-lo)/2
	idx := len(*nodes)
	*nodes = append(*nodes, shape{key: mid})
	l := -1
	if mid > lo {
		l = buildShape(nodes, lo, mid-1)
	}
	r := buildShape(nodes, mid+1, hi)
	(*nodes)[idx].left = l
	(*nodes)[idx].right = r
	return idx
}

// Build constructs a balanced BST of n keys (1..n) whose nodes are
// allocated from alloc in the given order. seed controls the random
// permutation for RandomOrder. A non-positive n or unknown order
// fails with cclerr.ErrInvalidArg; allocation failures propagate.
func Build(m *machine.Machine, alloc heap.Allocator, n int64, order Order, seed int64) (*BST, error) {
	if n <= 0 {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"trees: Build(%d): need at least one key", n)
	}
	var nodes []shape
	nodes = make([]shape, 0, n)
	root := buildShape(&nodes, 1, uint32(n))

	// Decide allocation order: a permutation of preorder indices.
	perm := make([]int, n)
	switch order {
	case DepthFirstOrder:
		for i := range perm {
			perm[i] = i
		}
	case RandomOrder:
		perm = rand.New(rand.NewSource(seed)).Perm(int(n))
	case LevelOrder:
		// BFS over the shape.
		perm = perm[:0]
		queue := []int{root}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			perm = append(perm, i)
			if nodes[i].left >= 0 {
				queue = append(queue, nodes[i].left)
			}
			if nodes[i].right >= 0 {
				queue = append(queue, nodes[i].right)
			}
		}
	default:
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"trees: unknown order %d", int(order))
	}

	addrs := make([]memsys.Addr, n)
	for _, idx := range perm {
		a, err := alloc.Alloc(BSTNodeSize)
		if err != nil {
			return nil, fmt.Errorf("trees: Build: node %d: %w", idx, err)
		}
		addrs[idx] = a
	}
	// Write nodes through the arena directly: construction is not
	// part of the measured search phase.
	for i, nd := range nodes {
		a := addrs[i]
		m.Arena.Store32(a.Add(bstOffKey), nd.key)
		m.Arena.StoreAddr(a.Add(bstOffLeft), addrOf(addrs, nd.left))
		m.Arena.StoreAddr(a.Add(bstOffRight), addrOf(addrs, nd.right))
	}
	return &BST{m: m, root: addrs[root], n: n}, nil
}

// MustBuild is Build for benchmark and test construction phases that
// size their workload within the arena by design.
//
// Panic justification: construction-scale code does not thread errors
// it has made impossible; the typed error is the panic value, and the
// bench runner's per-experiment recover converts it into a structured
// failure record.
func MustBuild(m *machine.Machine, alloc heap.Allocator, n int64, order Order, seed int64) *BST {
	t, err := Build(m, alloc, n, order, seed)
	if err != nil {
		panic(err)
	}
	return t
}

func addrOf(addrs []memsys.Addr, idx int) memsys.Addr {
	if idx < 0 {
		return memsys.NilAddr
	}
	return addrs[idx]
}

// N returns the number of keys.
func (t *BST) N() int64 { return t.n }

// Root returns the root element's address.
func (t *BST) Root() memsys.Addr { return t.root }

// Machine returns the machine the tree lives on.
func (t *BST) Machine() *machine.Machine { return t.m }

// Search descends from the root to the key, charging every node
// touch to the simulated cache. It returns true if the key is
// present (always, for keys in [1, N]).
func (t *BST) Search(key uint32) bool {
	n := t.root
	for !n.IsNil() {
		t.m.Tick(CompareCost)
		k := t.m.Load32(n.Add(bstOffKey))
		if key == k {
			return true
		}
		if key < k {
			n = t.m.LoadAddr(n.Add(bstOffLeft))
		} else {
			n = t.m.LoadAddr(n.Add(bstOffRight))
		}
	}
	return false
}

// Layout returns the ccmorph template for BST nodes.
func Layout() ccmorph.Layout {
	return ccmorph.Layout{
		NodeSize: BSTNodeSize,
		MaxKids:  2,
		Kid: func(m *machine.Machine, n memsys.Addr, i int) memsys.Addr {
			off := int64(bstOffLeft)
			if i == 2 {
				off = bstOffRight
			}
			return m.LoadAddr(n.Add(off))
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, i int, kid memsys.Addr) {
			off := int64(bstOffLeft)
			if i == 2 {
				off = bstOffRight
			}
			m.StoreAddr(n.Add(off), kid)
		},
	}
}

// Morph reorganizes the tree with ccmorph — subtree clustering plus,
// when colorFrac > 0, coloring — turning it into the paper's
// transparent C-tree. freeOld, if non-nil, reclaims old nodes. On
// error the tree keeps its original layout and remains searchable
// (Reorganize is copy-then-commit).
func (t *BST) Morph(colorFrac float64, freeOld func(memsys.Addr)) (ccmorph.Stats, error) {
	return t.MorphStrategy(ccmorph.SubtreeCluster, colorFrac, freeOld)
}

// MorphStrategy is Morph with an explicit node-order strategy:
// ccmorph.SubtreeCluster for the paper's clustering,
// ccmorph.VEB for the cache-oblivious recursive-blocked layout.
func (t *BST) MorphStrategy(strat ccmorph.Strategy, colorFrac float64,
	freeOld func(memsys.Addr)) (ccmorph.Stats, error) {
	cfg := ccmorph.Config{
		Geometry:  layout.FromLevel(t.m.Cache.LastLevel()),
		ColorFrac: colorFrac,
		Strategy:  strat,
	}
	newRoot, st, err := ccmorph.Reorganize(t.m, t.root, Layout(), cfg, freeOld)
	t.root = newRoot
	return st, err
}

// MorphWith is Morph into a caller-supplied region. The telemetry
// experiments use it to learn where the new layout lives
// (Region.Extents) so the reorganized structure can be registered as
// its own miss-attribution region.
func (t *BST) MorphWith(region *layout.Region, freeOld func(memsys.Addr)) (ccmorph.Stats, error) {
	return t.MorphStrategyWith(ccmorph.SubtreeCluster, region, freeOld)
}

// MorphStrategyWith combines MorphStrategy's explicit strategy with
// MorphWith's caller-supplied region.
func (t *BST) MorphStrategyWith(strat ccmorph.Strategy, region *layout.Region,
	freeOld func(memsys.Addr)) (ccmorph.Stats, error) {
	newRoot, st, err := ccmorph.ReorganizeWithStrategy(t.m, t.root, Layout(), strat, region, freeOld)
	t.root = newRoot
	return st, err
}

// CheckSearchable verifies every key in [1, n] is reachable; tests
// and examples call it after construction or morphing.
func (t *BST) CheckSearchable() error {
	for k := uint32(1); int64(k) <= t.n; k++ {
		if !t.Search(k) {
			return fmt.Errorf("trees: key %d unreachable", k)
		}
	}
	return nil
}
