package ccmorph

import (
	"errors"
	"math/rand"
	"testing"

	"ccl/internal/cclerr"

	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// Binary test node, shaped like the paper's ~20-byte tree element:
// 4-byte key at +0, left at +4, right at +12 (20 bytes, so k = 3 per
// 64-byte block — one parent plus both children per block). The
// parent-ful variant appends a parent pointer at +20 (28 bytes).
const (
	offKey    = 0
	offLeft   = 4
	offRight  = 12
	offParent = 20
)

func kidOff(i int) int64 {
	if i == 1 {
		return offLeft
	}
	return offRight
}

func binLayout(nodeSize int64, hasParent bool) Layout {
	l := Layout{
		NodeSize: nodeSize,
		MaxKids:  2,
		Kid: func(m *machine.Machine, n memsys.Addr, i int) memsys.Addr {
			return m.LoadAddr(n.Add(kidOff(i)))
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, i int, kid memsys.Addr) {
			m.StoreAddr(n.Add(kidOff(i)), kid)
		},
	}
	if hasParent {
		l.HasParent = true
		l.SetParent = func(m *machine.Machine, n, p memsys.Addr) {
			m.StoreAddr(n.Add(offParent), p)
		}
	}
	return l
}

// buildComplete builds a complete binary tree of the given depth with
// nodes allocated in random order (the paper's "randomly clustered"
// baseline). Keys are heap indices (root = 1).
func buildComplete(m *machine.Machine, alloc *heap.Malloc, depth int, nodeSize int64, seed int64) (memsys.Addr, int64) {
	n := int64(1)<<depth - 1
	order := rand.New(rand.NewSource(seed)).Perm(int(n))
	addrs := make([]memsys.Addr, n) // index = heap position - 1
	for _, pos := range order {
		addrs[pos] = heap.MustAlloc(alloc, nodeSize)
	}
	for i := int64(0); i < n; i++ {
		a := addrs[i]
		m.Store32(a.Add(offKey), uint32(i+1))
		var l, r memsys.Addr
		if 2*i+1 < n {
			l = addrs[2*i+1]
		}
		if 2*i+2 < n {
			r = addrs[2*i+2]
		}
		m.StoreAddr(a.Add(offLeft), l)
		m.StoreAddr(a.Add(offRight), r)
		if nodeSize >= 28 {
			var p memsys.Addr
			if i > 0 {
				p = addrs[(i-1)/2]
			}
			m.StoreAddr(a.Add(offParent), p)
		}
	}
	return addrs[0], n
}

// collectLevelOrder returns keys in level order.
func collectLevelOrder(m *machine.Machine, root memsys.Addr) []int64 {
	var keys []int64
	queue := []memsys.Addr{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.IsNil() {
			continue
		}
		keys = append(keys, int64(m.Load32(n.Add(offKey))))
		queue = append(queue, m.LoadAddr(n.Add(offLeft)), m.LoadAddr(n.Add(offRight)))
	}
	return keys
}

// testGeometry is the cache geometry the package's tests place for.
var testGeometry = layout.Geometry{Sets: 256, Assoc: 1, BlockSize: 64}

// testRegion returns a region over m's arena on testGeometry, colored
// at colorFrac (0: clustering only).
func testRegion(t testing.TB, m *machine.Machine, colorFrac float64) *layout.Region {
	t.Helper()
	r, err := layout.NewRegion(m.Arena, testGeometry, colorFrac)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newMachine() *machine.Machine { return machine.NewScaled(16) }

func TestReorganizePreservesTopology(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	root, n := buildComplete(m, alloc, 8, 20, 1)
	before := collectLevelOrder(m, root)

	newRoot, st, err := Reorganize(m, root, binLayout(20, false), testRegion(t, m, 0.5), SubtreeCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := collectLevelOrder(m, newRoot)

	if int64(len(after)) != n || st.Nodes != n {
		t.Fatalf("node count: walked %d, stats %d, want %d", len(after), st.Nodes, n)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("level-order key %d: %d != %d", i, after[i], before[i])
		}
	}
}

func TestReorganizeNilRoot(t *testing.T) {
	m := newMachine()
	r, st, err := Reorganize(m, memsys.NilAddr, binLayout(20, false), testRegion(t, m, 0.5), SubtreeCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsNil() || st.Nodes != 0 {
		t.Fatal("nil root should be a no-op")
	}
}

func TestClusteringPacksSubtrees(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	root, n := buildComplete(m, alloc, 8, 20, 2)

	newRoot, st, err := Reorganize(m, root, binLayout(20, false), testRegion(t, m, 0), SubtreeCluster, nil) // clustering only
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesPerBlk != 3 {
		t.Fatalf("k = %d, want 3 (20-byte nodes, 64-byte blocks)", st.NodesPerBlk)
	}
	// Count parent-child pairs sharing a cache block.
	shared, edges := 0, 0
	var walk func(memsys.Addr)
	walk = func(a memsys.Addr) {
		for _, off := range []int64{offLeft, offRight} {
			kid := m.LoadAddr(a.Add(off))
			if kid.IsNil() {
				continue
			}
			edges++
			if int64(a)/64 == int64(kid)/64 {
				shared++
			}
			walk(kid)
		}
	}
	walk(newRoot)
	if edges != int(n-1) {
		t.Fatalf("walked %d edges, want %d", edges, n-1)
	}
	// With k=3, every full cluster holds a parent and both children:
	// about two thirds of all edges are intra-block.
	if rate := float64(shared) / float64(edges); rate < 0.55 {
		t.Fatalf("parent-child co-location rate %.2f too low for subtree clustering", rate)
	}
}

func TestColoringPlacesRootRegionHot(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	root, _ := buildComplete(m, alloc, 10, 20, 3)

	newRoot, st, err := Reorganize(m, root, binLayout(20, false), testRegion(t, m, 0.5), SubtreeCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := layout.NewColoring(testGeometry, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !col.IsHot(newRoot) {
		t.Fatalf("new root %v (set %d) not in hot region", newRoot, col.SetOf(newRoot))
	}
	wantHot := col.HotSets * int64(col.Assoc)
	if st.HotClusters != wantHot {
		t.Fatalf("HotClusters = %d, want %d", st.HotClusters, wantHot)
	}

	// Every node within the first few levels must be hot, and all
	// hot nodes must be nearer the root than any cold node's depth
	// allows. Walk with depths.
	maxHotDepth, minColdDepth := -1, 1<<30
	type item struct {
		a memsys.Addr
		d int
	}
	queue := []item{{newRoot, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.a.IsNil() {
			continue
		}
		if col.IsHot(it.a) {
			if it.d > maxHotDepth {
				maxHotDepth = it.d
			}
		} else if it.d < minColdDepth {
			minColdDepth = it.d
		}
		queue = append(queue,
			item{m.LoadAddr(it.a.Add(offLeft)), it.d + 1},
			item{m.LoadAddr(it.a.Add(offRight)), it.d + 1})
	}
	// Clusters are assigned hot in level order, so hot and cold may
	// overlap by at most one cluster-depth (log2(k+1) = 1 level).
	if maxHotDepth > minColdDepth+1 {
		t.Fatalf("hot nodes as deep as %d but cold nodes start at %d: coloring not root-most",
			maxHotDepth, minColdDepth)
	}
}

func TestParentPointersRewired(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	root, _ := buildComplete(m, alloc, 6, 28, 4)

	newRoot, _, err := Reorganize(m, root, binLayout(28, true), testRegion(t, m, 0.5), SubtreeCluster, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got := m.LoadAddr(newRoot.Add(offParent)); !got.IsNil() {
		t.Fatalf("new root's parent = %v, want nil", got)
	}
	var walk func(a memsys.Addr)
	walk = func(a memsys.Addr) {
		for _, off := range []int64{offLeft, offRight} {
			kid := m.LoadAddr(a.Add(off))
			if kid.IsNil() {
				continue
			}
			if got := m.LoadAddr(kid.Add(offParent)); got != a {
				t.Fatalf("node %v: parent = %v, want %v", kid, got, a)
			}
			walk(kid)
		}
	}
	walk(newRoot)
}

func TestFreeOldCallback(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	root, n := buildComplete(m, alloc, 7, 20, 5)
	freed := map[memsys.Addr]bool{}
	Reorganize(m, root, binLayout(20, false), testRegion(t, m, 0.5), SubtreeCluster, func(a memsys.Addr) {
		if freed[a] {
			t.Fatalf("old node %v freed twice", a)
		}
		freed[a] = true
		alloc.Free(a)
	})
	if int64(len(freed)) != n {
		t.Fatalf("freed %d nodes, want %d", len(freed), n)
	}
	if err := alloc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestListReorganization(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	// Singly-linked list: value at +0, next at +8 (16 bytes, k=4).
	const nodeSize = 16
	lay := Layout{
		NodeSize: nodeSize,
		MaxKids:  1,
		Kid: func(m *machine.Machine, n memsys.Addr, _ int) memsys.Addr {
			return m.LoadAddr(n.Add(8))
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, _ int, kid memsys.Addr) {
			m.StoreAddr(n.Add(8), kid)
		},
	}
	// Build 100 nodes in scattered order.
	rng := rand.New(rand.NewSource(6))
	addrs := make([]memsys.Addr, 100)
	for _, i := range rng.Perm(100) {
		addrs[i] = heap.MustAlloc(alloc, nodeSize)
	}
	for i, a := range addrs {
		m.StoreInt(a, int64(i))
		next := memsys.NilAddr
		if i+1 < len(addrs) {
			next = addrs[i+1]
		}
		m.StoreAddr(a.Add(8), next)
	}

	newHead, st, err := Reorganize(m, addrs[0], lay, testRegion(t, m, 0.5), SubtreeCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesPerBlk != 4 {
		t.Fatalf("k = %d, want 4", st.NodesPerBlk)
	}
	// Order preserved, and runs of 4 share blocks.
	i, shared := 0, 0
	for n := newHead; !n.IsNil(); n = m.LoadAddr(n.Add(8)) {
		if got := m.LoadInt(n); got != int64(i) {
			t.Fatalf("list value %d = %d", i, got)
		}
		next := m.LoadAddr(n.Add(8))
		if !next.IsNil() && int64(n)/64 == int64(next)/64 {
			shared++
		}
		i++
	}
	if i != 100 {
		t.Fatalf("list length %d, want 100", i)
	}
	if shared < 70 { // 3 of every 4 links are intra-block
		t.Fatalf("only %d/99 links intra-block; clustering failed", shared)
	}
}

func TestCycleDetectionFails(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	a := heap.MustAlloc(alloc, 20)
	b := heap.MustAlloc(alloc, 20)
	m.StoreAddr(a.Add(offLeft), b)
	m.StoreAddr(a.Add(offRight), memsys.NilAddr)
	m.StoreAddr(b.Add(offLeft), a) // cycle
	m.StoreAddr(b.Add(offRight), memsys.NilAddr)
	if _, _, err := Reorganize(m, a, binLayout(20, false), testRegion(t, m, 0.5), SubtreeCluster, nil); !errors.Is(err, cclerr.ErrNotTree) {
		t.Fatalf("cyclic structure err = %v, want ErrNotTree", err)
	}
}

func TestDAGDetectionFails(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	a := heap.MustAlloc(alloc, 20)
	b := heap.MustAlloc(alloc, 20)
	c := heap.MustAlloc(alloc, 20)
	// a's both children point at c via b: a->b, a->c, b->c (DAG).
	m.StoreAddr(a.Add(offLeft), b)
	m.StoreAddr(a.Add(offRight), c)
	m.StoreAddr(b.Add(offLeft), c)
	m.StoreAddr(b.Add(offRight), memsys.NilAddr)
	m.StoreAddr(c.Add(offLeft), memsys.NilAddr)
	m.StoreAddr(c.Add(offRight), memsys.NilAddr)
	if _, _, err := Reorganize(m, a, binLayout(20, false), testRegion(t, m, 0.5), SubtreeCluster, nil); !errors.Is(err, cclerr.ErrNotTree) {
		t.Fatalf("DAG err = %v, want ErrNotTree", err)
	}
}

func TestInvalidLayoutFails(t *testing.T) {
	m := newMachine()
	bad := []Layout{
		{},
		{NodeSize: 20},
		{NodeSize: 20, MaxKids: 2},
		{NodeSize: 20, MaxKids: 2, Kid: binLayout(20, false).Kid},
		func() Layout {
			l := binLayout(20, false)
			l.HasParent = true // no SetParent
			return l
		}(),
	}
	for i, l := range bad {
		if _, _, err := Reorganize(m, memsys.Addr(8192), l, testRegion(t, m, 0.5), SubtreeCluster, nil); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Errorf("bad layout %d: err = %v, want ErrInvalidArg", i, err)
		}
	}
}

// TestRandomTopologiesPreserved is the property test: for randomly
// shaped (non-complete) binary trees, reorganization preserves the
// exact level-order key sequence and node count, with and without
// coloring, and never places two nodes at overlapping addresses.
func TestRandomTopologiesPreserved(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		m := newMachine()
		alloc := heap.New(m.Arena)

		// Grow a random tree by repeated leaf attachment.
		n := 50 + rng.Intn(400)
		addrs := make([]memsys.Addr, 0, n)
		root := heap.MustAlloc(alloc, 20)
		m.Store32(root.Add(offKey), 0)
		m.StoreAddr(root.Add(offLeft), memsys.NilAddr)
		m.StoreAddr(root.Add(offRight), memsys.NilAddr)
		addrs = append(addrs, root)
		for i := 1; i < n; i++ {
			parent := addrs[rng.Intn(len(addrs))]
			off := int64(offLeft)
			if rng.Intn(2) == 1 {
				off = offRight
			}
			if !m.LoadAddr(parent.Add(off)).IsNil() {
				continue // slot taken; skip
			}
			node := heap.MustAlloc(alloc, 20)
			m.Store32(node.Add(offKey), uint32(i))
			m.StoreAddr(node.Add(offLeft), memsys.NilAddr)
			m.StoreAddr(node.Add(offRight), memsys.NilAddr)
			m.StoreAddr(parent.Add(off), node)
			addrs = append(addrs, node)
		}

		before := collectLevelOrder(m, root)
		colorFrac := 0.0
		if trial%2 == 1 {
			colorFrac = 0.5
		}
		newRoot, st, err := Reorganize(m, root, binLayout(20, false), testRegion(t, m, colorFrac), SubtreeCluster, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := collectLevelOrder(m, newRoot)

		if len(before) != len(after) || int(st.Nodes) != len(before) {
			t.Fatalf("trial %d: node counts diverged: %d/%d/%d", trial, len(before), len(after), st.Nodes)
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("trial %d: key %d differs", trial, i)
			}
		}
		// No overlapping placements.
		seen := map[memsys.Addr]bool{}
		var walk func(a memsys.Addr)
		walk = func(a memsys.Addr) {
			if a.IsNil() {
				return
			}
			for off := int64(0); off < 20; off += 4 {
				if seen[a.Add(off)] {
					t.Fatalf("trial %d: overlapping nodes at %v", trial, a)
				}
				seen[a.Add(off)] = true
			}
			walk(m.LoadAddr(a.Add(offLeft)))
			walk(m.LoadAddr(a.Add(offRight)))
		}
		walk(newRoot)
	}
}

// TestSearchSpeedup is the package-level end-to-end check: random
// root-to-leaf descents on a reorganized tree must cost substantially
// fewer cycles than on the randomly-allocated original — the essence
// of Figure 5.
func TestSearchSpeedup(t *testing.T) {
	m := newMachine()
	alloc := heap.New(m.Arena)
	root, _ := buildComplete(m, alloc, 12, 20, 7)

	descend := func(root memsys.Addr, searches int, seed int64) int64 {
		rng := rand.New(rand.NewSource(seed))
		m.Cache.Flush()
		m.ResetStats()
		for s := 0; s < searches; s++ {
			n := root
			for !n.IsNil() {
				m.Tick(2) // compare/branch work
				off := int64(offLeft)
				if rng.Intn(2) == 1 {
					off = offRight
				}
				n = m.LoadAddr(n.Add(off))
			}
		}
		return m.Stats().TotalCycles()
	}

	naive := descend(root, 300, 11)
	region, err := layout.NewRegion(m.Arena, layout.FromLevel(m.Cache.LastLevel()), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	newRoot, _, err := Reorganize(m, root, binLayout(20, false), region, SubtreeCluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	cc := descend(newRoot, 300, 11)

	if float64(naive)/float64(cc) < 1.3 {
		t.Fatalf("reorganized tree speedup %.2fx; want >= 1.3x (naive %d, cc %d cycles)",
			float64(naive)/float64(cc), naive, cc)
	}
}
