// Profiling: find the hot fields, not just the hot structures. Builds
// the Figure 5 binary search tree, attaches the field-level miss
// profiler, and shows the measurement the paper's §3.1 transformations
// (structure splitting, field reordering) start from: which *members*
// of the node take the last-level misses, and how the miss-rate time
// series reacts when ccmorph reorganizes the tree mid-run. Ends by
// exporting the profile as ccl-profile/v1 JSON and a pprof
// profile.proto readable with the stock Go toolchain:
//
//	go run ./examples/profiling
//	go tool pprof -top ccl-profile.pb.gz
package main

import (
	"fmt"
	"math/rand"
	"os"

	"ccl"
)

const (
	keys     = 1<<15 - 1
	searches = 20000
)

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func search(t *ccl.BST, rng *rand.Rand, count int) {
	for i := 0; i < count; i++ {
		if !t.Search(uint32(rng.Int63n(keys)) + 1) {
			panic("key not found")
		}
	}
}

func main() {
	m := ccl.NewScaledMachine(16)
	t := must(ccl.BuildBST(m, ccl.NewMalloc(m), keys, ccl.RandomOrder, 11))

	// SampleEvery 1 attributes every access — exact, and still cheap
	// at this scale. Long-running workloads sample (e.g. every 31st
	// access); pick a period coprime to any periodic field-access
	// pattern in the workload, or the sampler can alias with it.
	prof := ccl.AttachProfiler(m, ccl.ProfileConfig{})

	// The tree registers each node's address range and the node field
	// map (key/left/right/value), so a sampled miss at an address
	// resolves to "bst-nodes.key" rather than just "somewhere in the
	// tree".
	t.RegisterNodes(prof.Regions(), "bst-nodes")

	rng := rand.New(rand.NewSource(9))
	search(t, rng, searches/4) // warm to steady state
	m.ResetStats()
	prof.Reset()

	search(t, rng, searches)
	prof.CloseEpoch() // phase boundary: epochs never straddle the morph

	// Reorganize the tree (subtree clustering + coloring, §3.2) and
	// register the moved nodes under a new label: the second phase's
	// misses are charged to ctree-nodes, so before/after is one table.
	must(t.Morph(0.5, nil))
	t.RegisterNodes(prof.Regions(), "ctree-nodes")
	search(t, rng, searches)

	rep := prof.Report()
	fmt.Print(rep.RenderTable())
	fmt.Println()
	fmt.Print(rep.RenderSeries())
	fmt.Println()

	// Export both machine-readable forms. The JSON is the schema
	// `ccbench -profile` writes; the .pb.gz is pprof's gzip-compressed
	// profile.proto (stacks are structure → field; values are
	// accesses, last-level misses, and estimated stall cycles).
	jf := must(os.Create("ccl-profile.json"))
	if err := ccl.WriteProfile(jf, rep); err != nil {
		panic(err)
	}
	if err := jf.Close(); err != nil {
		panic(err)
	}

	pf := must(os.Create("ccl-profile.pb.gz"))
	if err := rep.WritePprof(pf); err != nil {
		panic(err)
	}
	if err := pf.Close(); err != nil {
		panic(err)
	}

	fmt.Println("wrote ccl-profile.json (ccl-profile/v1) and ccl-profile.pb.gz")
	fmt.Println("inspect the pprof export with:")
	fmt.Println("  go tool pprof -top ccl-profile.pb.gz")
}
