// Package telemetry is the observability layer of the simulator: it
// turns the aggregate counters the cache reports into the *causal*
// quantities the paper argues with.
//
// The paper's claims run through cache-miss diagnosis: §3.2 motivates
// coloring by conflict misses in low-associativity caches, and §5.4
// explains model-vs-measured gaps via TLB and conflict effects. None
// of that is visible in a total miss count, so this package provides:
//
//   - Collector, a cache.Observer that classifies every demand miss
//     as compulsory, capacity, or conflict (the 3C model) using a
//     shadow fully-associative LRU simulation per level — conflict
//     misses are exactly the class coloring eliminates;
//   - per-set occupancy/conflict heatmaps for the last-level cache,
//     so hot-set pressure (and coloring's effect on it) is visible;
//   - RegionMap, which charges every miss to a labeled address range
//     ("bst-nodes", "radiance-octree"), giving misses-by-structure
//     tables before and after reorganization;
//   - the coherence class of the 4C model on a machine.Topology core,
//     fed by the private cache's OnInvalidate events.
//
// The cache.Observer seam is the only way to watch a run; aggregate
// counters are the typed Stats structs each package returns.
// Telemetry is strictly opt-in: a hierarchy without an attached
// observer pays one nil pointer comparison per event site and behaves
// byte-identically to an uninstrumented simulator.
package telemetry

import (
	"fmt"

	"ccl/internal/cache"
)

// Attach builds a Collector for h's geometry and installs it as the
// hierarchy's observer, returning it for inspection. It is the
// one-line opt-in:
//
//	col := telemetry.Attach(m.Cache)
//	... workload ...
//	report := col.Report()
func Attach(h *cache.Hierarchy) *Collector {
	c := NewCollector(h.Config())
	h.SetObserver(c)
	return c
}

// MissClass is a 4C demand-miss classification: the classic 3C model
// plus the coherence class a multi-core topology introduces.
type MissClass int

const (
	// Compulsory misses are first-ever references to a block: no
	// cache organization avoids them (only larger blocks or
	// prefetching do).
	Compulsory MissClass = iota
	// Capacity misses would occur even in a fully-associative cache
	// of the same size: the working set simply does not fit.
	Capacity
	// Conflict misses are the remainder: the block was resident in
	// the shadow fully-associative cache but the set-indexed
	// placement had evicted it. These are the misses coloring (§3.2)
	// removes, and the reason the paper colors at all.
	Conflict
	// Coherence misses are re-references to a block another core's
	// store invalidated while it was resident here — the class false
	// sharing creates and padding/splitting removes. Only collectors
	// attached to a machine.Topology core, whose private cache reports
	// OnInvalidate, ever report it; single-core runs classify exactly
	// as the 3C model did.
	Coherence
)

// NumClasses is the number of miss classes (the 4C model).
const NumClasses = 4

// String names the class.
func (c MissClass) String() string {
	switch c {
	case Compulsory:
		return "compulsory"
	case Capacity:
		return "capacity"
	case Conflict:
		return "conflict"
	case Coherence:
		return "coherence"
	default:
		return fmt.Sprintf("MissClass(%d)", int(c))
	}
}
