// Strategies: pick a layout with measurements, not folklore. Races
// the three layout strategies on the Figure 5 search tree, then runs
// the full profiler -> plan -> split -> re-bench pipeline:
//
//  1. subtree clustering vs the cache-oblivious vEB order on a deep
//     tree, where the TLB — not the cache — decides the winner;
//
//  2. field-level profiling of the unsplit tree (with the sampling
//     period validated against aliasing first);
//
//  3. hot/cold splitting planned from that profile, and the same
//     search workload re-measured on the split form.
//
//     go run ./examples/strategies
package main

import (
	"fmt"
	"math/rand"

	"ccl"
)

const (
	deepKeys  = 1<<19 - 1 // far beyond the scaled machine's TLB reach
	splitKeys = 1<<15 - 1
	searches  = 20000
	scale     = 16
)

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// measure runs the steady-state search loop and reports per-search
// cycle and TLB-miss averages.
func measure(m *ccl.Machine, search func(uint32) bool, n int64) (cyc, tlb float64) {
	m.Cache.Flush()
	m.ResetStats()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < searches; i++ {
		if !search(uint32(rng.Int63n(n)) + 1) {
			panic("key not found")
		}
	}
	st := m.Stats()
	return float64(st.TotalCycles()) / searches, float64(st.TLBMisses) / searches
}

func main() {
	// --- 1. Placement order: clustering vs vEB on a deep tree ---
	fmt.Printf("deep tree, %d keys (avg per search):\n", deepKeys)
	for _, strat := range []ccl.MorphStrategy{ccl.SubtreeCluster, ccl.VEB} {
		m := ccl.NewScaledMachine(scale)
		t := must(ccl.BuildBST(m, ccl.NewMalloc(m), deepKeys, ccl.RandomOrder, 11))
		if _, err := t.MorphWith(must(ccl.NewRegion(m, 0.5)), strat, nil); err != nil {
			panic(err)
		}
		cyc, tlb := measure(m, t.Search, deepKeys)
		fmt.Printf("  %-16s %8.1f cycles  %6.2f TLB misses\n", strat, cyc, tlb)
	}

	// --- 2. Profile the unsplit tree ---
	m := ccl.NewScaledMachine(scale)
	t := must(ccl.BuildBST(m, ccl.NewMalloc(m), splitKeys, ccl.RandomOrder, 11))
	prof := ccl.AttachProfiler(m, ccl.ProfileConfig{}) // SampleEvery 1: no thinning
	if err := prof.SamplePeriodJitterless(); err != nil {
		panic(err) // an even period would never sample one of key/left
	}
	t.RegisterNodes(prof.Regions(), "bst-nodes")
	cyc, tlb := measure(m, t.Search, splitKeys)
	fmt.Printf("\nsplit workload, %d keys:\n", splitKeys)
	fmt.Printf("  %-16s %8.1f cycles  %6.2f TLB misses\n", "unsplit", cyc, tlb)

	rep := prof.Report()
	for _, s := range rep.Structs {
		if s.Label != "bst-nodes" {
			continue
		}
		fmt.Println("  profiled field ranking (hot -> cold):")
		for _, f := range s.Fields {
			tag := "cold"
			if f.Hot {
				tag = "HOT"
			}
			fmt.Printf("    %-8s off=%2d size=%d  ll-misses=%-8d %s\n",
				f.Field, f.Offset, f.Size, f.LLMisses, tag)
		}
	}

	// --- 3. Split on the profile's advice and re-bench ---
	part := must(ccl.PlanBSTSplit(rep, "bst-nodes"))
	st, stats, err := t.Split(part, must(ccl.NewRegion(m, 0.5)), nil)
	if err != nil {
		panic(err)
	}
	m.Cache.SetObserver(nil) // detach the profiler for the re-bench
	scyc, stlb := measure(m, st.Search, splitKeys)
	fmt.Printf("  %-16s %8.1f cycles  %6.2f TLB misses   (%d hot + %d cold bytes/elem, %d nodes)\n",
		"hot/cold split", scyc, stlb, stats.HotBytes, stats.ColdBytes, stats.Nodes)
	fmt.Printf("  speedup: %.2fx\n", cyc/scyc)
}
