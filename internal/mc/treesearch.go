// treesearch.go is the contrast driver: a balanced search tree built
// once and then searched read-only by every core. Sharing here is
// harmless — every core's copy sits in the Shared state, the
// directory sends no invalidations, and the 4C classifier reports no
// coherence misses — which is exactly the control an experiment needs
// next to the false-sharing drivers: it is *writes* to shared
// granules that ping-pong, not sharing itself.
package mc

import (
	"math/rand"

	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// Tree node layout, matching the paper's ~20-byte element (a 4-byte
// key, two 4-byte simulated pointers, an 8-byte payload) so k = 3
// nodes pack per 64-byte granule.
const (
	treeOffKey   = 0
	treeOffLeft  = 4
	treeOffRight = 8
	treeOffValue = 12
	treeNodeSize = 20
)

// TreeConfig parameterizes a TreeSearch run.
type TreeConfig struct {
	// Nodes is the tree size; keys are 1..Nodes.
	Nodes int64
	// Searches is the number of lookups each core performs.
	Searches int
	// Seed derives each core's key stream (seed+core).
	Seed int64
}

// TreeResult extends the common result with per-core hit counts.
type TreeResult struct {
	Result
	Hits []int64
}

// TreeSearch builds the shared tree through core 0's caches, then
// drives every core's search loop under the schedule.
func TreeSearch(tp *machine.Topology, cfg TreeConfig) TreeResult {
	cols := AttachCollectors(tp)
	tp.Arena.AlignBrk(tp.Config().LLC.BlockSize)
	base := tp.Arena.Sbrk(cfg.Nodes * treeNodeSize)
	for _, col := range cols {
		col.Regions().Register("tree-nodes", base, cfg.Nodes*treeNodeSize)
	}

	// Preorder construction: node i's children are found by binary
	// splitting, allocated depth-first — the paper's clustered
	// layout. next tracks the bump allocation.
	next := int64(0)
	var build func(lo, hi uint32) memsys.Addr
	builder := tp.Core(0)
	build = func(lo, hi uint32) memsys.Addr {
		if lo > hi {
			return 0
		}
		mid := lo + (hi-lo)/2
		a := base.Add(next * treeNodeSize)
		next++
		builder.Store32(a.Add(treeOffKey), mid)
		builder.StoreInt(a.Add(treeOffValue), int64(mid)*3)
		builder.StoreAddr(a.Add(treeOffLeft), build(lo, mid-1))
		builder.StoreAddr(a.Add(treeOffRight), build(mid+1, hi))
		return a
	}
	root := build(1, uint32(cfg.Nodes))

	hits := make([]int64, tp.Cores())
	workers := make([]Worker, tp.Cores())
	for i := 0; i < tp.Cores(); i++ {
		c := tp.Core(i)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		left := cfg.Searches
		core := i
		workers[i] = func() bool {
			if left <= 0 {
				return false
			}
			left--
			// Half the probes are present keys, half absent.
			key := uint32(1 + rng.Intn(int(cfg.Nodes)*2))
			if treeLookup(c, root, key) {
				hits[core]++
			}
			return left > 0
		}
	}
	steps := RoundRobin(workers...)
	return TreeResult{Result: collect(tp, steps, cols), Hits: hits}
}

// treeLookup descends from root through core c's caches.
func treeLookup(c machine.Mem, root memsys.Addr, key uint32) bool {
	for a := root; a != 0; {
		k := c.Load32(a.Add(treeOffKey))
		c.Tick(2) // compare/branch cost, as in the trees package
		if k == key {
			c.LoadInt(a.Add(treeOffValue))
			return true
		}
		if key < k {
			a = c.LoadAddr(a.Add(treeOffLeft))
		} else {
			a = c.LoadAddr(a.Add(treeOffRight))
		}
	}
	return false
}
