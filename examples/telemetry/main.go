// Telemetry: watch the cache while a workload runs. Builds the Figure
// 5 binary search tree, attaches a telemetry collector, and prints
// what the simulator alone cannot say: which misses are conflict
// misses (the kind coloring removes), which structure caused them,
// and how the last-level cache's sets are loaded. Then reorganizes
// the tree with ccmorph and shows the same view after.
package main

import (
	"fmt"
	"math/rand"

	"ccl"
)

const (
	keys     = 1<<15 - 1
	searches = 20000
)

func report(name string, m *ccl.Machine, col *ccl.Collector) {
	rep := col.Report()
	fmt.Printf("--- %s: %.1f cycles/search\n", name, float64(m.Stats().TotalCycles())/searches)
	fmt.Println("  structure        LLC misses  compulsory  capacity  conflict")
	last := len(rep.Levels) - 1
	for _, r := range rep.Regions {
		fmt.Printf("  %-16s %10d  %10d  %8d  %8d\n",
			r.Label, r.MissesByLevel[last], r.Compulsory, r.Capacity, r.Conflict)
	}
	fmt.Println()
	fmt.Println(rep.Heatmap.RenderASCII(64))
}

func run(name string, m *ccl.Machine, col *ccl.Collector, t *ccl.BST) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < searches/4; i++ { // warm to steady state
		t.Search(uint32(rng.Int63n(keys)) + 1)
	}
	m.ResetStats()
	col.Reset()
	for i := 0; i < searches; i++ {
		if !t.Search(uint32(rng.Int63n(keys)) + 1) {
			panic("key not found")
		}
	}
	report(name, m, col)
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

func main() {
	m := ccl.NewScaledMachine(16)

	// Build the tree with the region boundaries noted, so every miss
	// can be charged to the structure that caused it.
	start := m.Arena.Brk()
	t := must(ccl.BuildBST(m, ccl.NewMalloc(m), keys, ccl.RandomOrder, 11))
	end := m.Arena.Brk()

	col := ccl.AttachTelemetry(m)
	col.Regions().Register("bst-nodes", start, int64(end)-int64(start))
	run("random-placed BST", m, col, t)

	// Reorganize into a region we hold, so the new layout's address
	// extents are known and can be labeled.
	region := must(ccl.NewRegion(m, 0.5))
	must(t.MorphWith(region, ccl.SubtreeCluster, nil))

	col2 := ccl.AttachTelemetry(m)
	col2.Regions().Register("bst-nodes(old)", start, int64(end)-int64(start))
	for _, ext := range region.Extents() {
		col2.Regions().RegisterRange("ctree-nodes", ext)
	}
	run("ccmorph C-tree", m, col2, t)

	fmt.Println("All traffic moved from bst-nodes to ctree-nodes, and the")
	fmt.Println("conflict-miss column — the misses §3.2's coloring targets —")
	fmt.Println("collapsed along with the total.")
}
