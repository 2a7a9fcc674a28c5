// Package ccmorph implements the paper's transparent, semantics-
// preserving tree reorganizer (§3.1).
//
// Given a pointer to the root of a tree-like structure (homogeneous
// elements, no external pointers into the middle; parent pointers are
// allowed), a traversal function, and the cache parameters, ccmorph
// copies the structure into a fresh region of the simulated address
// space applying two placement techniques:
//
//   - subtree clustering (§2.1): subtrees of k = floor(b/e) nodes are
//     packed into individual cache blocks, laid out linearly, so one
//     block transfer brings in log2(k+1) nodes of any root-to-leaf
//     path instead of 1;
//   - coloring (§2.2): the root-most nodes — the ones every search
//     touches — are placed at addresses mapping to a reserved region
//     of the cache where neither cold nodes nor each other can evict
//     them.
//
// Reorganization is meant for read-mostly structures: it runs between
// the build and use phases, and can be re-invoked periodically for
// slowly-changing structures (the paper's health benchmark does
// exactly that).
package ccmorph

import (
	"fmt"
	"slices"

	"ccl/internal/cclerr"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// Layout is the structure-type "template" a caller supplies (§3.1.1's
// templatized ccmorph plus the next_node function of Figure 3).
// Accessors receive the machine so every pointer they read or write
// is charged to the simulated cache: reorganization cost is real and
// included in measurements, as it was in the paper's RADIANCE result.
type Layout struct {
	// NodeSize is the element size e in bytes.
	NodeSize int64
	// MaxKids is the maximum child count (2 for binary trees, 4 for
	// quadtrees, 1 for lists).
	MaxKids int
	// Kid returns node's i-th child pointer, i in [1, MaxKids],
	// or NilAddr.
	Kid func(m *machine.Machine, node memsys.Addr, i int) memsys.Addr
	// SetKid overwrites node's i-th child pointer.
	SetKid func(m *machine.Machine, node memsys.Addr, i int, kid memsys.Addr)
	// HasParent declares that elements carry a parent (or
	// predecessor) pointer, which ccmorph must also rewrite. When
	// true, SetParent must be non-nil.
	HasParent bool
	// SetParent overwrites node's parent pointer.
	SetParent func(m *machine.Machine, node memsys.Addr, parent memsys.Addr)
}

func (l Layout) validate() error {
	if l.NodeSize <= 0 {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "ccmorph: node size must be positive")
	}
	if l.MaxKids < 1 {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "ccmorph: MaxKids must be at least 1")
	}
	if l.Kid == nil || l.SetKid == nil {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "ccmorph: Kid and SetKid are required")
	}
	if l.HasParent && l.SetParent == nil {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "ccmorph: HasParent requires SetParent")
	}
	return nil
}

// Strategy selects the node order Reorganize packs into blocks. Both
// strategies share every other phase — snapshot, placement, coloring,
// copy-then-commit — so they are interchangeable drop-ins with
// identical failure semantics.
type Strategy int

const (
	// SubtreeCluster is the paper's §2.1 policy: level-order clusters
	// of k-node subtrees, each packed into one cache block. It is
	// cache-aware — tuned to the block size — and the default.
	SubtreeCluster Strategy = iota
	// VEB lays nodes out in van Emde Boas recursive-blocked order
	// (layout.VEBOrder): the tree splits at half its height, top half
	// before each bottom subtree, recursively. The order is
	// cache-oblivious — near-optimal at every granularity at once —
	// which matters most a level above the cache: on deep trees the
	// bottom recursive subtrees keep the last steps of a descent on
	// one page, where clustering's level-order spread costs a TLB
	// miss per step.
	VEB
)

// String names the strategy as the bench tables do.
func (s Strategy) String() string {
	switch s {
	case SubtreeCluster:
		return "subtree-cluster"
	case VEB:
		return "veb"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config carries the cache parameters of the paper's ccmorph call
// (Figure 3: Cache_sets, Cache_associativity, Cache_blk_size,
// Color_const).
type Config struct {
	// Geometry of the cache level placement targets (normally L2).
	Geometry layout.Geometry
	// ColorFrac is the fraction of cache sets reserved for the
	// structure's hottest elements — the paper's Color_const. Zero
	// disables coloring (clustering only).
	ColorFrac float64
	// Strategy selects the node order; the zero value is the paper's
	// subtree clustering.
	Strategy Strategy
}

// Stats reports what a reorganization did.
type Stats struct {
	Nodes       int64 // elements moved
	Clusters    int64 // cache blocks used
	HotClusters int64 // clusters placed in the colored hot region
	NodesPerBlk int64 // k
	NewBytes    int64 // bytes claimed for the new layout
	Aborted     int64 // reorganizations that failed and left the original layout in place
}

// ClusterCost is the busy-cycle charge per element for ccmorph's
// host-side bookkeeping (queueing, relocation-map maintenance).
const ClusterCost = 6

// Reorganize copies the tree rooted at root into a cache-conscious
// layout and returns the new root and placement statistics. freeOld,
// if non-nil, is called on every old element after its replacement is
// wired up, so the caller's allocator can reclaim the space.
//
// Reorganize is copy-then-commit: the clustered copy is built in
// fresh extents and the root swap happens only after every element
// has been written. On any error — a non-tree structure
// (cclerr.ErrNotTree), a failed placement (cclerr.ErrPlacementFailed),
// arena exhaustion (cclerr.ErrOutOfMemory) — the original root is
// returned unchanged, freeOld is never called, and the input
// structure remains fully usable; the returned Stats carry Aborted=1
// so degradation is visible through telemetry.
func Reorganize(m *machine.Machine, root memsys.Addr, lay Layout, cfg Config,
	freeOld func(memsys.Addr)) (memsys.Addr, Stats, error) {
	region, err := layout.NewRegion(m.Arena, cfg.Geometry, cfg.ColorFrac)
	if err != nil {
		return root, Stats{Aborted: 1}, err
	}
	return ReorganizeWithStrategy(m, root, lay, cfg.Strategy, region, freeOld)
}

// ReorganizeWith is Reorganize into a caller-supplied region with the
// default subtree-clustering strategy. Callers morphing many
// structures against the same cache — like health's periodic
// per-list reorganization — share one region, so the structures do
// not all claim the same hot cache sets and conflict.
func ReorganizeWith(m *machine.Machine, root memsys.Addr, lay Layout, region *layout.Region,
	freeOld func(memsys.Addr)) (memsys.Addr, Stats, error) {
	return ReorganizeWithStrategy(m, root, lay, SubtreeCluster, region, freeOld)
}

// ReorganizeWithStrategy is Reorganize into a caller-supplied
// (shareable) region with an explicit node-order strategy.
// See Reorganize for the copy-then-commit failure contract: every
// phase before the final commit only reads the old structure and
// writes freshly-claimed extents, so an error at any point returns
// the original root with the input intact.
//
// The implementation makes one read pass over the old structure in
// preorder (sequential on depth-first layouts, no worse than any
// order on scattered ones), computes the node order (subtree
// clustering or vEB) and coloring assignment host-side, then makes
// one write pass in the new layout's order — mirroring how the real
// ccmorph copies a structure into contiguous blocks without thrashing
// the cache it is trying to help.
func ReorganizeWithStrategy(m *machine.Machine, root memsys.Addr, lay Layout,
	strat Strategy, region *layout.Region,
	freeOld func(memsys.Addr)) (newRoot memsys.Addr, stats Stats, err error) {

	if err := lay.validate(); err != nil {
		return root, Stats{Aborted: 1}, err
	}
	if root.IsNil() {
		return memsys.NilAddr, Stats{}, nil
	}

	// A corrupt structure can send the traversal's user-supplied
	// accessors through a wild pointer, which the arena reports by
	// panicking with a typed memsys.Fault (its SIGSEGV). Copy-then-
	// commit converts that into an ordinary abort: nothing old has
	// been modified yet, so recover and report the structure as
	// untraversable.
	defer func() {
		if r := recover(); r != nil {
			f, isFault := r.(memsys.Fault)
			if !isFault {
				panic(r)
			}
			newRoot, stats = root, Stats{Aborted: 1}
			err = fmt.Errorf("ccmorph: traversal faulted: %w: %w", cclerr.ErrNotTree, f)
		}
	}()

	claimedBefore := region.Claimed()

	// Phase 1: snapshot the structure in preorder.
	snap, err := takeSnapshot(m, root, lay)
	if err != nil {
		return root, Stats{Aborted: 1}, err
	}
	n := len(snap.old)

	// Phase 2: compute the node order, host-side: order lists every
	// element once, and cluster c is order[ends[c-1]:ends[c]].
	k := region.Geometry().NodesPerBlock(lay.NodeSize)
	m.Tick(ClusterCost * int64(n))
	var order, ends []int
	switch strat {
	case SubtreeCluster:
		order, ends = clusterize(snap, k)
	case VEB:
		order, ends, err = vebClusters(snap, k)
		if err != nil {
			return root, Stats{Aborted: 1}, err
		}
	default:
		return root, Stats{Aborted: 1}, cclerr.Errorf(cclerr.ErrInvalidArg,
			"ccmorph: unknown strategy %d", int(strat))
	}

	stats = Stats{
		Nodes:       int64(n),
		Clusters:    int64(len(ends)),
		NodesPerBlk: k,
	}

	// Phase 3a: place clusters and build the relocation map. Clusters
	// are packed densely into cache blocks, hot while a block of the
	// region's budget is left. Failures here (a cluster wider than a
	// block, exhausted arena, a vetoed placement) leave only
	// unreferenced fresh extents behind — the old structure has not
	// been touched — and the region is rewound, so the next structure
	// placed into a shared region gets back the hot budget spent here.
	mark := region.Mark()
	newAddr := make([]memsys.Addr, n)
	start := 0
	for _, end := range ends {
		base, hot, perr := region.Pack(int64(end-start)*lay.NodeSize, true)
		if perr != nil {
			region.Rewind(mark)
			return root, Stats{Aborted: 1}, perr
		}
		if hot {
			stats.HotClusters++
		}
		for ni, idx := range order[start:end] {
			newAddr[idx] = base.Add(int64(ni) * lay.NodeSize)
		}
		start = end
	}

	// Phase 3b: write every element at its new home and rewire its
	// pointers (child links, and its own parent link if present).
	// Writes go exclusively to the newly-placed copies; old elements
	// are never mutated, so the commit below is the only point of no
	// return.
	for _, idx := range order {
		dst := newAddr[idx]
		m.WriteBytes(dst, snap.elem(idx))
		for i, kid := range snap.kidsOf(idx) {
			if kid >= 0 {
				lay.SetKid(m, dst, i+1, newAddr[kid])
			}
		}
		if lay.HasParent {
			pa := memsys.NilAddr
			if p := snap.parent[idx]; p >= 0 {
				pa = newAddr[p]
			}
			lay.SetParent(m, dst, pa)
		}
	}

	// Commit: the copy is complete and internally consistent; only now
	// may the old elements be reclaimed.
	if freeOld != nil {
		for _, a := range snap.old {
			freeOld(a)
		}
	}

	stats.NewBytes = region.Claimed() - claimedBefore
	return newAddr[0], stats, nil
}

// snapshot is the host-side copy of the structure the read pass
// takes, held flat: element i, numbered in preorder, was read from
// old[i]; its bytes are elem(i), its children's indices kidsOf(i)
// (-1 for a nil child), its parent's index parent[i] (-1 for the
// root) and its depth depth[i]. Indices are 32-bit, halving the
// arrays of a paper-scale tree: the 32-bit simulated address space
// holds fewer than 2^31 elements of two or more bytes.
type snapshot struct {
	size    int64 // element size
	maxKids int
	old     []memsys.Addr
	buf     []byte
	kids    []int32
	parent  []int32
	depth   []int32
}

func (s *snapshot) elem(i int) []byte { return s.buf[int64(i)*s.size : int64(i+1)*s.size] }

func (s *snapshot) kidsOf(i int) []int32 { return s.kids[i*s.maxKids : (i+1)*s.maxKids] }

// takeSnapshot reads the structure once, in preorder, charging the
// cache for each element read: the element's bytes, then each child
// pointer through lay.Kid. A child's index is resolved when it is
// popped, through the kids slot it was reached from. A structure that
// is not tree-like — an element reachable twice (DAG or cycle) —
// fails with cclerr.ErrNotTree.
func takeSnapshot(m *machine.Machine, root memsys.Addr, lay Layout) (*snapshot, error) {
	s := &snapshot{size: lay.NodeSize, maxKids: lay.MaxKids}
	var seen memsys.AddrSet
	kidA := make([]memsys.Addr, lay.MaxKids)

	type frame struct {
		addr memsys.Addr
		from int // kids slot that points here; -1 for the root
	}
	stack := []frame{{root, -1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen.Add(f.addr) {
			return nil, cclerr.Errorf(cclerr.ErrNotTree,
				"ccmorph: element %v reachable twice", f.addr)
		}
		idx := len(s.old)
		parent, depth := int32(-1), int32(0)
		if f.from >= 0 {
			s.kids[f.from] = int32(idx)
			parent = int32(f.from / lay.MaxKids)
			depth = s.depth[parent] + 1
		}
		s.old = append(s.old, f.addr)
		s.parent = append(s.parent, parent)
		s.depth = append(s.depth, depth)
		s.buf = slices.Grow(s.buf, int(s.size))[:len(s.buf)+int(s.size)]
		m.ReadBytes(f.addr, s.elem(idx))
		for i := 1; i <= lay.MaxKids; i++ {
			kidA[i-1] = lay.Kid(m, f.addr, i)
			s.kids = append(s.kids, -1)
		}
		// Push children in reverse so the leftmost is visited next
		// (preorder).
		for i := lay.MaxKids; i >= 1; i-- {
			if kid := kidA[i-1]; !kid.IsNil() {
				stack = append(stack, frame{kid, idx*lay.MaxKids + i - 1})
			}
		}
	}
	return s, nil
}

// clusterize partitions the snapshot into subtree clusters of at most
// k elements (Figure 1), returned as one node order plus each
// cluster's end offset in it. Cluster roots are processed in strict
// depth order, so clusters emerge in level order: the first clusters
// hold the root-most — and under random search, hottest — elements,
// which coloring then pins in the reserved cache region.
func clusterize(s *snapshot, k int64) (order, ends []int) {
	n := len(s.old)
	order = make([]int, 0, n)

	// Bucket queue by depth: one FIFO list of cluster roots per depth,
	// threaded through next. Cluster roots are only ever pushed at
	// depths greater than the one being drained, so an advancing
	// cursor yields exact level order.
	maxDepth := int32(0)
	for _, d := range s.depth {
		maxDepth = max(maxDepth, d)
	}
	head := make([]int32, 2*(maxDepth+1))
	tail := head[maxDepth+1:]
	for d := range head {
		head[d] = -1
	}
	next := make([]int32, n)
	push := func(idx int32) {
		d := s.depth[idx]
		if tail[d] < 0 {
			head[d] = idx
		} else {
			next[tail[d]] = idx
		}
		tail[d], next[idx] = idx, -1
	}
	push(0)

	var frontier []int32
	for d := int32(0); d <= maxDepth; d++ {
		for head[d] >= 0 {
			croot := head[d]
			head[d] = next[croot]

			// Level-order fill of this cluster from croot's subtree.
			start := len(order)
			frontier = append(frontier[:0], croot)
			f := 0
			for ; f < len(frontier) && int64(len(order)-start) < k; f++ {
				order = append(order, int(frontier[f]))
				for _, kid := range s.kidsOf(int(frontier[f])) {
					if kid >= 0 {
						frontier = append(frontier, kid)
					}
				}
			}
			// Unplaced frontier nodes root later clusters.
			for _, idx := range frontier[f:] {
				push(idx)
			}
			ends = append(ends, len(order))
		}
	}
	return order, ends
}

// vebClusters partitions the van Emde Boas order into clusters the
// region packs into cache blocks, returned like clusterize's. Cluster
// boundaries follow the order's recursive-subtree structure rather
// than fixed k-node runs: a node joins the current cluster only while
// its parent is already in it (and the cluster has room), so the
// finest recursive blocks — a parent and its children, contiguous in
// vEB order by construction — land in one cache block. Naive
// k-chunking instead shears those groups across block boundaries, and
// measurably loses the paths-per-block economy that subtree
// clustering gets for free. The order's prefix holds the top
// recursive subtrees — the root-most nodes — so the colored hot
// budget covers the elements every search touches, same as
// clusterize's level-order output.
//
// The snapshot has already proven the structure a tree, so VEBOrder's
// validation cannot fail here; errors are surfaced anyway to keep the
// abort path honest.
func vebClusters(s *snapshot, k int64) (order, ends []int, err error) {
	// VEBOrder takes an adjacency list; its rows share one backing
	// array of the tree's n-1 edges.
	n := len(s.old)
	edges := make([]int, 0, n-1)
	kids := make([][]int, n)
	for i := range kids {
		from := len(edges)
		for _, kid := range s.kidsOf(i) {
			if kid >= 0 {
				edges = append(edges, int(kid))
			}
		}
		kids[i] = edges[from:]
	}
	if order, err = layout.VEBOrder(kids, 0); err != nil {
		return nil, nil, err
	}
	start := 0
	for i, v := range order {
		if i > start && (int64(i-start) >= k || !slices.Contains(order[start:i], int(s.parent[v]))) {
			ends = append(ends, i)
			start = i
		}
	}
	return order, append(ends, len(order)), nil
}
