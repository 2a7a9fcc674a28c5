// Reorganize: using ccmorph on a custom structure. Defines a ternary
// tree type over the simulated heap, supplies ccmorph the same kind
// of "template" the paper's Figure 3 shows (element size, arity,
// pointer accessors), reorganizes it, and verifies the structure is
// untouched semantically while its cache behaviour improves.
package main

import (
	"fmt"
	"math/rand"

	"ccl"
)

// Ternary tree node: 4-byte payload, three 4-byte children.
const (
	offVal  = 0
	offKid0 = 4
	nodeLen = 16
)

// template is this structure's ccmorph description (cf. Figure 3's
// next_node function).
func template() ccl.StructureLayout {
	return ccl.StructureLayout{
		NodeSize: nodeLen,
		MaxKids:  3,
		Kid: func(m *ccl.Machine, n ccl.Addr, i int) ccl.Addr {
			return m.LoadAddr(n.Add(offKid0 + int64(i-1)*ccl.PtrSize))
		},
		SetKid: func(m *ccl.Machine, n ccl.Addr, i int, kid ccl.Addr) {
			m.StoreAddr(n.Add(offKid0+int64(i-1)*ccl.PtrSize), kid)
		},
	}
}

// must keeps the example linear: this workload is sized well inside
// the simulated address space, so failures (ccl.ErrOutOfMemory and
// friends) are unexpected here.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// build allocates a ternary tree of the given depth in random order —
// the layout an incrementally built structure ends up with.
func build(m *ccl.Machine, alloc ccl.Allocator, depth int, rng *rand.Rand) ccl.Addr {
	count := 0
	for i, p := 0, 1; i < depth; i++ {
		count += p
		p *= 3
	}
	addrs := make([]ccl.Addr, count)
	for _, i := range rng.Perm(count) {
		addrs[i] = must(alloc.Alloc(nodeLen))
	}
	var wire func(idx, d int) ccl.Addr
	next := 0
	wire = func(idx, d int) ccl.Addr {
		n := addrs[idx]
		m.Store32(n.Add(offVal), uint32(idx))
		for k := 0; k < 3; k++ {
			kid := ccl.NilAddr
			if d+1 < depth {
				next++
				kid = wire(next, d+1)
			}
			m.StoreAddr(n.Add(offKid0+int64(k)*ccl.PtrSize), kid)
		}
		return n
	}
	return wire(0, 0)
}

// sum walks the whole tree.
func sum(m *ccl.Machine, n ccl.Addr) uint64 {
	if n.IsNil() {
		return 0
	}
	s := uint64(m.Load32(n.Add(offVal)))
	for k := 0; k < 3; k++ {
		s += sum(m, m.LoadAddr(n.Add(offKid0+int64(k)*ccl.PtrSize)))
	}
	return s
}

func main() {
	m := ccl.NewScaledMachine(16)
	alloc := ccl.NewMalloc(m)
	root := build(m, alloc, 9, rand.New(rand.NewSource(5)))

	m.ResetStats()
	before := sum(m, root)
	costBefore := m.Stats().TotalCycles()

	// The region is Figure 3's cache parameters: the L2's geometry,
	// with half its sets colored for the root-most nodes.
	region := must(ccl.NewRegion(m, 0.5))
	freeOld := func(a ccl.Addr) { alloc.Free(a) }
	newRoot, st, err := ccl.Reorganize(m, root, template(), region, ccl.SubtreeCluster, freeOld)
	if err != nil {
		// Reorganize is copy-then-commit: on error the original root
		// comes back and the structure is still walkable.
		fmt.Printf("reorganization failed (%s): keeping the original layout\n",
			ccl.ErrorClass(err))
	}
	fmt.Printf("ccmorph moved %d nodes into %d blocks (k=%d, %d hot)\n",
		st.Nodes, st.Clusters, st.NodesPerBlk, st.HotClusters)

	m.ResetStats()
	after := sum(m, newRoot)
	costAfter := m.Stats().TotalCycles()

	if before != after {
		panic("reorganization changed the structure's contents")
	}
	fmt.Printf("traversal: %d cycles before, %d after (%.2fx)\n",
		costBefore, costAfter, float64(costBefore)/float64(costAfter))
	fmt.Printf("checksum unchanged: %d\n", after)
}
