package ccl_test

import (
	"fmt"

	"ccl"
)

// ExampleNewCCMalloc shows hint-based co-location: after a chain of
// hinted allocations, consecutive list cells share cache blocks.
func ExampleNewCCMalloc() {
	m := ccl.NewPaperMachine()
	alloc := must(ccl.NewCCMalloc(m, ccl.NewBlock))

	prev := must(alloc.AllocHint(12, ccl.Addr(0x10))) // seed ccmalloc space
	shared := 0
	blk := must(ccl.NewRegion(m, 0)).Geometry().BlockSize
	for i := 0; i < 99; i++ {
		cell := must(alloc.AllocHint(12, prev))
		if int64(cell)/blk == int64(prev)/blk {
			shared++
		}
		prev = cell
	}
	fmt.Printf("co-located links: %d of 99\n", shared)
	// Output: co-located links: 75 of 99
}

// ExampleReorganize reorganizes a three-element list with ccmorph and
// shows the elements are packed into one cache block afterwards.
func ExampleReorganize() {
	m := ccl.NewPaperMachine()
	alloc := ccl.NewMalloc(m)

	// Build a scattered list: value at +0, next pointer at +4.
	mk := func(v uint32) ccl.Addr {
		p := must(alloc.Alloc(8))
		alloc.Alloc(200) // scatter
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
		Kid:      func(m *ccl.Machine, n ccl.Addr, _ int) ccl.Addr { return m.LoadAddr(n.Add(4)) },
		SetKid:   func(m *ccl.Machine, n ccl.Addr, _ int, k ccl.Addr) { m.StoreAddr(n.Add(4), k) },
	}
	region := must(ccl.NewRegion(m, 0)) // clustering only
	head, st, err := ccl.Reorganize(m, a, lay, region, ccl.SubtreeCluster, func(a ccl.Addr) { alloc.Free(a) })
	if err != nil {
		panic(err)
	}

	blk := region.Geometry().BlockSize
	second := m.LoadAddr(head.Add(4))
	third := m.LoadAddr(second.Add(4))
	fmt.Printf("nodes moved: %d\n", st.Nodes)
	fmt.Printf("one block: %v\n",
		int64(head)/blk == int64(second)/blk && int64(head)/blk == int64(third)/blk)
	// Output:
	// nodes moved: 3
	// one block: true
}

// ExampleCTreeModel predicts the paper-scale C-tree's steady-state
// miss rate and speedup from the §5.3 analysis.
func ExampleCTreeModel() {
	ct := ccl.CTreeModel{
		N:       2097151, // the paper's 2^21-1 keys
		K:       3,       // 20-byte nodes, 64-byte blocks
		Sets:    16384,   // 1 MB direct-mapped L2
		Assoc:   1,
		HotFrac: 0.5,
	}
	fmt.Printf("hot nodes: %.0f\n", ct.HotNodes())
	fmt.Printf("miss rate: %.3f\n", ct.MissRate())
	fmt.Printf("predicted speedup: %.2f\n", ct.PredictedSpeedup(ccl.PaperParams()))
	// Output:
	// hot nodes: 24576
	// miss rate: 0.153
	// predicted speedup: 4.23
}
