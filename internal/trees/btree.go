// In-core B-tree (§4.2): nodes are exactly one cache block, aligned
// to block boundaries, and the root-most nodes are colored into a
// reserved cache region. The paper's observation — that B-trees lose
// to transparent C-trees because they reserve slack in each node for
// insertions — is reproduced by bulk-loading at a partial fill factor
// and by supporting real insertions that split nodes.

package trees

import (
	"fmt"

	"ccl/internal/cclerr"
	"ccl/internal/ccmorph"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// BTree node layout inside one cache block of size B. Internal nodes
// hold K = (B - 12) / 8 separators (4-byte keys and 4-byte child
// pointers):
//
//	+0            keys     [K]uint32
//	+4K           children [K+1]Addr
//	+4K+4(K+1)    count    uint32
//	+4K+4(K+1)+4  leaf     uint32 (0/1)
//
// Leaves store real records — a 4-byte key plus the same 8-byte
// satellite value a BST element carries — so their capacity is
// (B - 12) / 12 entries. For the paper's 64-byte L2 blocks this gives
// 6 separators per internal node and 4 records per leaf.

// BTree is a block-node B-tree over the simulated address space.
type BTree struct {
	m         *machine.Machine
	blockSize int64
	maxKeys   int // internal separator capacity
	leafCap   int // leaf record capacity
	root      memsys.Addr
	n         int64 // live keys
	height    int

	region *layout.Region // one block per node, root-most hot
}

// MaxKeysFor returns the internal-node separator capacity for a
// block size.
//
// Panic justification: NewBTree rejects too-small geometries with a
// typed error before node sizing; calling this arithmetic helper
// directly with an unusable block size is a caller bug.
func MaxKeysFor(blockSize int64) int {
	k := int((blockSize - 12) / 8)
	if k < 2 {
		panic(fmt.Sprintf("trees: block size %d too small for a B-tree node", blockSize))
	}
	return k
}

// LeafKeysFor returns the leaf record capacity for a block size: each
// record is a key plus its 8-byte satellite value.
//
// Panic justification: same contract as MaxKeysFor — geometry is
// validated by NewBTree before this helper runs.
func LeafKeysFor(blockSize int64) int {
	k := int((blockSize - 12) / 12)
	if k < 2 {
		panic(fmt.Sprintf("trees: block size %d too small for a B-tree leaf", blockSize))
	}
	return k
}

// NewBTree returns an empty B-tree whose nodes are single cache
// blocks of the machine's last-level cache. colorFrac > 0 reserves
// that fraction of the cache for the root-most nodes, as the paper's
// colored in-core B-tree does. A cache block too small to hold a
// B-tree node fails with cclerr.ErrBadGeometry.
func NewBTree(m *machine.Machine, colorFrac float64) (*BTree, error) {
	geo := layout.FromLevel(m.Cache.LastLevel())
	// A leaf needs two 12-byte records plus the 12-byte tail, so 36
	// bytes is the smallest usable block (leaves are the binding
	// constraint; internal nodes need only 28).
	if geo.BlockSize < 36 {
		return nil, cclerr.Errorf(cclerr.ErrBadGeometry,
			"trees: block size %d too small for a B-tree", geo.BlockSize)
	}
	region, err := layout.NewRegion(m.Arena, geo, colorFrac)
	if err != nil {
		return nil, err
	}
	return &BTree{
		m:         m,
		blockSize: geo.BlockSize,
		maxKeys:   MaxKeysFor(geo.BlockSize),
		leafCap:   LeafKeysFor(geo.BlockSize),
		region:    region,
	}, nil
}

// field offsets
func (t *BTree) keyOff(i int) int64   { return int64(i) * 4 }
func (t *BTree) childOff(i int) int64 { return int64(t.maxKeys)*4 + int64(i)*4 }
func (t *BTree) countOff() int64      { return int64(t.maxKeys)*4 + int64(t.maxKeys+1)*4 }
func (t *BTree) leafOff() int64       { return t.countOff() + 4 }

// raw (unmetered) node accessors for construction.
func (t *BTree) rawCount(n memsys.Addr) int { return int(t.m.Arena.Load32(n.Add(t.countOff()))) }
func (t *BTree) rawSetCount(n memsys.Addr, c int) {
	t.m.Arena.Store32(n.Add(t.countOff()), uint32(c))
}
func (t *BTree) rawLeaf(n memsys.Addr) bool { return t.m.Arena.Load32(n.Add(t.leafOff())) != 0 }
func (t *BTree) rawSetLeaf(n memsys.Addr, leaf bool) {
	v := uint32(0)
	if leaf {
		v = 1
	}
	t.m.Arena.Store32(n.Add(t.leafOff()), v)
}
func (t *BTree) rawKey(n memsys.Addr, i int) uint32 { return t.m.Arena.Load32(n.Add(t.keyOff(i))) }
func (t *BTree) rawSetKey(n memsys.Addr, i int, k uint32) {
	t.m.Arena.Store32(n.Add(t.keyOff(i)), k)
}
func (t *BTree) rawChild(n memsys.Addr, i int) memsys.Addr {
	return t.m.Arena.LoadAddr(n.Add(t.childOff(i)))
}
func (t *BTree) rawSetChild(n memsys.Addr, i int, c memsys.Addr) {
	t.m.Arena.StoreAddr(n.Add(t.childOff(i)), c)
}

// newNode places a node in a block of its own; hot while a block of
// the region's budget is left (construction is top-down for bulk
// loads, so the budget covers the root-most levels). Placement
// failures — a vetoed placement, arena exhaustion — propagate.
func (t *BTree) newNode(leaf bool) (memsys.Addr, error) {
	a, _, err := t.region.Pack(t.blockSize, true)
	if err != nil {
		return memsys.NilAddr, err
	}
	t.m.Arena.Memset(a, 0, t.blockSize)
	t.rawSetLeaf(a, leaf)
	return a, nil
}

// N returns the number of keys in the tree.
func (t *BTree) N() int64 { return t.n }

// Height returns the tree height (leaf-only tree = 1, empty = 0).
func (t *BTree) Height() int { return t.height }

// HeapBytes returns the arena bytes claimed for nodes.
func (t *BTree) HeapBytes() int64 { return t.region.Claimed() }

// BulkLoad builds the tree from n sorted keys 1..n, filling each node
// to ceil(maxKeys*fill) keys. The paper's point about B-trees
// reserving space for insertions corresponds to fill < 1 (random
// insertion order yields ~0.67 average occupancy). Top levels are
// allocated first so coloring pins them.
func (t *BTree) BulkLoad(n int64, fill float64) error {
	if t.n != 0 {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "trees: BulkLoad on a non-empty B-tree")
	}
	if n <= 0 {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "trees: BulkLoad needs at least one key")
	}
	if fill <= 0 || fill > 1 {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "trees: BulkLoad fill %v out of (0,1]", fill)
	}
	perLeaf := int(float64(t.leafCap)*fill + 0.999999)
	if perLeaf < 1 {
		perLeaf = 1
	}
	if perLeaf > t.leafCap {
		perLeaf = t.leafCap
	}
	per := int(float64(t.maxKeys)*fill + 0.999999)
	if per < 1 {
		per = 1
	}
	if per > t.maxKeys {
		per = t.maxKeys
	}

	// Plan levels host-side, bottom-up: leaves hold runs of keys;
	// each internal level groups per+1 children under per keys.
	var levels [][]planNode

	// Leaf level.
	var leaves []planNode
	for lo := int64(1); lo <= n; lo += int64(perLeaf) {
		hi := lo + int64(perLeaf) - 1
		if hi > n {
			hi = n
		}
		pn := planNode{leaf: true}
		for k := lo; k <= hi; k++ {
			pn.keys = append(pn.keys, uint32(k))
		}
		leaves = append(leaves, pn)
	}
	// Avoid an undersized final leaf violating B-tree minimums: if
	// the last leaf is lonely and short, rebalance with its sibling.
	if len(leaves) >= 2 {
		last := &leaves[len(leaves)-1]
		prev := &leaves[len(leaves)-2]
		if len(last.keys) < perLeaf/2 {
			all := append(append([]uint32{}, prev.keys...), last.keys...)
			half := len(all) / 2
			prev.keys = all[:half]
			last.keys = all[half:]
		}
	}
	levels = append(levels, leaves)

	// Internal levels until a single root remains.
	for len(levels[len(levels)-1]) > 1 {
		prev := levels[len(levels)-1]
		var cur []planNode
		group := per + 1
		for lo := 0; lo < len(prev); lo += group {
			hi := lo + group
			if hi > len(prev) {
				hi = len(prev)
			}
			pn := planNode{}
			for c := lo; c < hi; c++ {
				pn.children = append(pn.children, c)
				if c > lo {
					// Separator: smallest key in child c's subtree.
					pn.keys = append(pn.keys, subtreeMin(levels, len(levels)-1, c))
				}
			}
			cur = append(cur, pn)
		}
		// Rebalance a lonely last internal node (needs >= 2 kids).
		if len(cur) >= 2 && len(cur[len(cur)-1].children) < 2 {
			last := &cur[len(cur)-1]
			prev2 := &cur[len(cur)-2]
			moved := prev2.children[len(prev2.children)-1]
			prev2.children = prev2.children[:len(prev2.children)-1]
			prev2.keys = prev2.keys[:len(prev2.keys)-1]
			last.children = append([]int{moved}, last.children...)
			last.keys = append([]uint32{subtreeMin(levels, len(levels)-1, last.children[1])}, last.keys...)
		}
		levels = append(levels, cur)
	}

	// Allocate top-down (root level first) so the hot budget covers
	// the root-most blocks, then write everything. A placement
	// failure — a vetoed placement (cclerr.ErrPlacementFailed) or
	// arena exhaustion — aborts before the root is set, leaving the
	// tree empty and reloadable.
	addrs := make([][]memsys.Addr, len(levels))
	for li := len(levels) - 1; li >= 0; li-- {
		addrs[li] = make([]memsys.Addr, len(levels[li]))
		for i, pn := range levels[li] {
			a, err := t.newNode(pn.leaf)
			if err != nil {
				return fmt.Errorf("trees: BulkLoad: %w", err)
			}
			addrs[li][i] = a
		}
	}
	for li, lvl := range levels {
		for i, pn := range lvl {
			a := addrs[li][i]
			t.rawSetCount(a, len(pn.keys))
			for ki, k := range pn.keys {
				t.rawSetKey(a, ki, k)
			}
			for ci, c := range pn.children {
				t.rawSetChild(a, ci, addrs[li-1][c])
			}
		}
	}
	t.root = addrs[len(levels)-1][0]
	t.n = n
	t.height = len(levels)
	return nil
}

// planNode is the host-side scratch node used while planning a bulk
// load, before addresses are assigned.
type planNode struct {
	keys     []uint32
	children []int // indices into the previous (lower) level
	leaf     bool
}

// subtreeMin returns the smallest key under levels[li][idx].
func subtreeMin(levels [][]planNode, li, idx int) uint32 {
	for !levels[li][idx].leaf {
		idx = levels[li][idx].children[0]
		li--
	}
	return levels[li][idx].keys[0]
}

// Search descends from the root, charging the cache for every key
// and pointer read. Returns true if key is present.
func (t *BTree) Search(key uint32) bool {
	n := t.root
	for !n.IsNil() {
		cnt := int(t.m.Load32(n.Add(t.countOff())))
		leaf := t.m.Load32(n.Add(t.leafOff())) != 0
		i := 0
		for i < cnt {
			t.m.Tick(CompareCost)
			k := t.m.Load32(n.Add(t.keyOff(i)))
			if key == k {
				if leaf {
					return true
				}
				// Equal separators continue right of the key.
				i++
				break
			}
			if key < k {
				break
			}
			i++
		}
		if leaf {
			return false
		}
		n = t.m.LoadAddr(n.Add(t.childOff(i)))
	}
	return false
}

// Insert adds a key, splitting full nodes on the way down (preemptive
// splitting). Duplicate inserts are no-ops. A failed node allocation
// aborts the insert with the key absent and the tree still valid
// (splits happen top-down before the key is placed, and a completed
// split is a correct tree shape on its own).
func (t *BTree) Insert(key uint32) error {
	if t.root.IsNil() {
		root, err := t.newNode(true)
		if err != nil {
			return err
		}
		t.root = root
		t.rawSetCount(t.root, 1)
		t.rawSetKey(t.root, 0, key)
		t.n = 1
		t.height = 1
		return nil
	}
	if t.Search(key) {
		return nil
	}
	if t.rawCount(t.root) == t.capOf(t.root) {
		// Grow: new root with the old root as only child, then split.
		newRoot, err := t.newNode(false)
		if err != nil {
			return err
		}
		t.rawSetChild(newRoot, 0, t.root)
		if err := t.splitChild(newRoot, 0); err != nil {
			return err
		}
		t.root = newRoot
		t.height++
	}
	if err := t.insertNonFull(t.root, key); err != nil {
		return err
	}
	t.n++
	return nil
}

// capOf returns the key capacity of a node (leaves hold records,
// internal nodes hold separators).
func (t *BTree) capOf(n memsys.Addr) int {
	if t.rawLeaf(n) {
		return t.leafCap
	}
	return t.maxKeys
}

// splitChild splits node's i-th child (which must be full) in two,
// hoisting the median separator into node. A failed sibling
// allocation aborts before any key moves, leaving both nodes intact.
func (t *BTree) splitChild(node memsys.Addr, i int) error {
	child := t.rawChild(node, i)
	leaf := t.rawLeaf(child)
	right, err := t.newNode(leaf)
	if err != nil {
		return err
	}

	var sep uint32
	if leaf {
		mid := t.leafCap / 2
		// Leaf split: right keeps keys[mid:], separator is right's
		// first key (kept in the leaf: leaves hold all real keys).
		sep = t.rawKey(child, mid)
		rc := 0
		for k := mid; k < t.leafCap; k++ {
			t.rawSetKey(right, rc, t.rawKey(child, k))
			rc++
		}
		t.rawSetCount(right, rc)
		t.rawSetCount(child, mid)
	} else {
		mid := t.maxKeys / 2
		// Internal split: median moves up, right takes keys[mid+1:]
		// and children[mid+1:].
		sep = t.rawKey(child, mid)
		rc := 0
		for k := mid + 1; k < t.maxKeys; k++ {
			t.rawSetKey(right, rc, t.rawKey(child, k))
			rc++
		}
		for c := mid + 1; c <= t.maxKeys; c++ {
			t.rawSetChild(right, c-(mid+1), t.rawChild(child, c))
		}
		t.rawSetCount(right, rc)
		t.rawSetCount(child, mid)
	}

	// Shift node's keys/children right to make room at i.
	cnt := t.rawCount(node)
	for k := cnt; k > i; k-- {
		t.rawSetKey(node, k, t.rawKey(node, k-1))
	}
	for c := cnt + 1; c > i+1; c-- {
		t.rawSetChild(node, c, t.rawChild(node, c-1))
	}
	t.rawSetKey(node, i, sep)
	t.rawSetChild(node, i+1, right)
	t.rawSetCount(node, cnt+1)
	return nil
}

// insertNonFull inserts key under node, which is guaranteed non-full.
func (t *BTree) insertNonFull(node memsys.Addr, key uint32) error {
	for {
		cnt := t.rawCount(node)
		if t.rawLeaf(node) {
			i := cnt
			for i > 0 && t.rawKey(node, i-1) > key {
				t.rawSetKey(node, i, t.rawKey(node, i-1))
				i--
			}
			t.rawSetKey(node, i, key)
			t.rawSetCount(node, cnt+1)
			return nil
		}
		i := 0
		for i < cnt && key >= t.rawKey(node, i) {
			i++
		}
		child := t.rawChild(node, i)
		if t.rawCount(child) == t.capOf(child) {
			if err := t.splitChild(node, i); err != nil {
				return err
			}
			if key >= t.rawKey(node, i) {
				i++
			}
			child = t.rawChild(node, i)
		}
		node = child
	}
}

// morphLayout returns the ccmorph template for this tree's
// block-sized nodes. Kid reads the leaf flag and count (metered, like
// every morph traversal access) and reports NilAddr for leaves and
// for child slots beyond count — which also hides the stale pointers
// a preemptive split leaves beyond a shrunk node's live slots.
func (t *BTree) morphLayout() ccmorph.Layout {
	return ccmorph.Layout{
		NodeSize: t.blockSize,
		MaxKids:  t.maxKeys + 1,
		Kid: func(m *machine.Machine, n memsys.Addr, i int) memsys.Addr {
			if m.Load32(n.Add(t.leafOff())) != 0 {
				return memsys.NilAddr
			}
			if cnt := int(m.Load32(n.Add(t.countOff()))); i > cnt+1 {
				return memsys.NilAddr
			}
			return m.LoadAddr(n.Add(t.childOff(i - 1)))
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, i int, kid memsys.Addr) {
			m.StoreAddr(n.Add(t.childOff(i-1)), kid)
		},
	}
}

// Morph reorganizes the tree's blocks with ccmorph under the given
// node-order strategy. Each node is exactly one cache block, so
// clustering degenerates to k = 1 and the interesting effect is the
// order itself: VEB keeps the bottom levels of a descent on one page.
// Old blocks are not reclaimed (a layout.Region has no free path); on
// error the tree keeps its original layout (Reorganize is
// copy-then-commit).
func (t *BTree) Morph(strat ccmorph.Strategy, colorFrac float64) (ccmorph.Stats, error) {
	region, err := layout.NewRegion(t.m.Arena, layout.FromLevel(t.m.Cache.LastLevel()), colorFrac)
	if err != nil {
		return ccmorph.Stats{Aborted: 1}, err
	}
	return t.MorphWith(strat, region)
}

// MorphWith is Morph into a caller-supplied region.
func (t *BTree) MorphWith(strat ccmorph.Strategy, region *layout.Region) (ccmorph.Stats, error) {
	if t.root.IsNil() {
		return ccmorph.Stats{}, nil
	}
	newRoot, st, err := ccmorph.ReorganizeWithStrategy(t.m, t.root, t.morphLayout(), strat, region, nil)
	t.root = newRoot
	return st, err
}

// CheckInvariants walks the tree verifying ordering, balance (uniform
// leaf depth), and that every key in [1, n] present after a bulk load
// of n keys is reachable via raw reads.
func (t *BTree) CheckInvariants() error {
	if t.root.IsNil() {
		if t.n != 0 {
			return fmt.Errorf("trees: empty root but n = %d", t.n)
		}
		return nil
	}
	leafDepth := -1
	var walk func(n memsys.Addr, depth int, lo, hi uint32) error
	walk = func(n memsys.Addr, depth int, lo, hi uint32) error {
		cnt := t.rawCount(n)
		if cnt == 0 && n != t.root {
			return fmt.Errorf("trees: empty non-root node %v", n)
		}
		var prev uint32
		for i := 0; i < cnt; i++ {
			k := t.rawKey(n, i)
			if i > 0 && k <= prev {
				return fmt.Errorf("trees: node %v keys out of order", n)
			}
			if k < lo || (hi != 0 && k >= hi) {
				return fmt.Errorf("trees: node %v key %d outside (%d,%d)", n, k, lo, hi)
			}
			prev = k
		}
		if t.rawLeaf(n) {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("trees: leaves at depths %d and %d", leafDepth, depth)
			}
			return nil
		}
		for i := 0; i <= cnt; i++ {
			childLo, childHi := lo, hi
			if i > 0 {
				childLo = t.rawKey(n, i-1)
			}
			if i < cnt {
				childHi = t.rawKey(n, i)
			}
			c := t.rawChild(n, i)
			if c.IsNil() {
				return fmt.Errorf("trees: node %v missing child %d", n, i)
			}
			if err := walk(c, depth+1, childLo, childHi); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 1, 0, 0)
}
