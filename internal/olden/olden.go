// Package olden defines the shared vocabulary of the four Olden
// benchmark reproductions (§4.4, Figure 7, Table 2): the measurement
// variants compared in Figure 7, the simulated machine each runs on,
// and the result record the harness tabulates.
//
// Each benchmark lives in a subpackage (treeadd, health, mst,
// perimeter) and implements the same pattern: build its pointer
// structure through a heap.Allocator, run its kernel on a
// machine.Machine, and report a cycle breakdown plus a workload
// checksum that must be identical across all variants — placement is
// semantics-preserving or it is wrong.
package olden

import (
	"fmt"

	"ccl/internal/cache"
	"ccl/internal/ccmalloc"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/sim"
	"ccl/internal/telemetry"
)

// Variant is one bar of Figure 7.
type Variant int

const (
	// Base is the unmodified benchmark on the baseline allocator.
	Base Variant = iota
	// HWPrefetch adds the paper's hardware prefetching scheme:
	// every loaded pointer value is prefetched immediately (an
	// idealization of "prefetching all loads and stores currently
	// in the reorder buffer").
	HWPrefetch
	// SWPrefetch adds Luk & Mowry greedy software prefetching.
	SWPrefetch
	// CCMallocFirstFit uses ccmalloc with the first-fit strategy.
	CCMallocFirstFit
	// CCMallocClosest uses ccmalloc with the closest strategy.
	CCMallocClosest
	// CCMallocNewBlock uses ccmalloc with the new-block strategy.
	CCMallocNewBlock
	// CCMorphCluster reorganizes with subtree clustering only.
	CCMorphCluster
	// CCMorphClusterColor reorganizes with clustering and coloring.
	CCMorphClusterColor
	// CCMallocNullHint is the §4.4 control experiment: ccmalloc
	// invoked with every hint replaced by a null pointer.
	CCMallocNullHint
)

// Figure7Variants lists the eight schemes of Figure 7, in the
// paper's bar order.
var Figure7Variants = []Variant{
	Base, HWPrefetch, SWPrefetch,
	CCMallocFirstFit, CCMallocClosest, CCMallocNewBlock,
	CCMorphCluster, CCMorphClusterColor,
}

// String returns the Figure 7 legend label.
func (v Variant) String() string {
	switch v {
	case Base:
		return "B"
	case HWPrefetch:
		return "HP"
	case SWPrefetch:
		return "SP"
	case CCMallocFirstFit:
		return "FA"
	case CCMallocClosest:
		return "CA"
	case CCMallocNewBlock:
		return "NA"
	case CCMorphCluster:
		return "Cl"
	case CCMorphClusterColor:
		return "Cl+Col"
	case CCMallocNullHint:
		return "Null"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Name returns the long description used in reports.
func (v Variant) Name() string {
	switch v {
	case Base:
		return "base"
	case HWPrefetch:
		return "hw-prefetch"
	case SWPrefetch:
		return "sw-prefetch"
	case CCMallocFirstFit:
		return "ccmalloc-first-fit"
	case CCMallocClosest:
		return "ccmalloc-closest"
	case CCMallocNewBlock:
		return "ccmalloc-new-block"
	case CCMorphCluster:
		return "ccmorph-clustering"
	case CCMorphClusterColor:
		return "ccmorph-clustering+coloring"
	case CCMallocNullHint:
		return "ccmalloc-null-hints"
	default:
		return fmt.Sprintf("variant-%d", int(v))
	}
}

// CCMallocStrategy returns the allocator strategy for ccmalloc
// variants.
func (v Variant) CCMallocStrategy() (ccmalloc.Strategy, bool) {
	switch v {
	case CCMallocFirstFit:
		return ccmalloc.FirstFit, true
	case CCMallocClosest:
		return ccmalloc.Closest, true
	case CCMallocNewBlock, CCMallocNullHint:
		return ccmalloc.NewBlock, true
	default:
		return 0, false
	}
}

// MorphColorFrac returns the ccmorph coloring fraction for ccmorph
// variants (0 = clustering only) and whether ccmorph applies at all.
func (v Variant) MorphColorFrac() (float64, bool) {
	switch v {
	case CCMorphCluster:
		return 0, true
	case CCMorphClusterColor:
		return 0.5, true
	default:
		return 0, false
	}
}

// Hint filters a ccmalloc co-location hint: the null-hint control
// variant suppresses every hint, all others pass it through (hints
// are harmless no-ops to the baseline allocator).
func (v Variant) Hint(h memsys.Addr) memsys.Addr {
	if v == CCMallocNullHint {
		return memsys.NilAddr
	}
	return h
}

// HW reports whether the hardware prefetcher is on.
func (v Variant) HW() bool { return v == HWPrefetch }

// SW reports whether kernels should issue software prefetches.
func (v Variant) SW() bool { return v == SWPrefetch }

// Env is the per-run environment: a machine plus the variant's
// allocator, both fresh.
type Env struct {
	M       *machine.Machine
	Alloc   heap.Allocator
	Variant Variant
	// Profile, when non-nil, asks treeadd — the one benchmark the
	// fieldprof experiment profiles — to register its live tree (one
	// range per node, plus its field map) with this region map after
	// construction, enabling field-level miss profiling. The other
	// benchmarks ignore it. Nil — the default — costs nothing.
	Profile *telemetry.RegionMap
}

// NewEnv builds a benchmark environment in a fresh, private run
// context on Table 1's RSIM machine scaled down by scale; see
// NewEnvIn and cache.ScaledRSIM.
func NewEnv(v Variant, scale int64) Env {
	return NewEnvIn(sim.New(), v, cache.ScaledRSIM(scale))
}

// NewEnvIn builds a benchmark environment on a machine with cache
// configuration cfg; the Olden experiments pass Table 1's RSIM
// hierarchy scaled by cache.ScaledRSIM. The baseline allocator is
// charged heap.Malloc-equivalent costs via ccmalloc's cost model so
// allocator overhead comparisons are fair. The machine is owned by s,
// so the run context's fault guards reach it; an Env shares no mutable
// state with any other Env, which is what lets the bench worker pool
// run variants concurrently.
func NewEnvIn(s *sim.Sim, v Variant, cfg cache.Config) Env {
	m := s.NewMachine(cfg)
	m.PointerPrefetch = v.HW()

	var alloc heap.Allocator
	if strat, ok := v.CCMallocStrategy(); ok {
		cc, err := ccmalloc.New(m.Arena, layout.FromLevel(m.Cache.LastLevel()), strat, m.Cache)
		if err != nil {
			// Geometry comes from the machine's own last-level cache,
			// so a failure here is a harness bug: fail fast (DESIGN.md §7).
			panic(err)
		}
		alloc = cc
	} else {
		alloc = &meteredMalloc{Malloc: heap.New(m.Arena), clock: m.Cache}
	}
	return Env{M: m, Alloc: alloc, Variant: v}
}

// meteredMalloc charges the baseline allocator's (smaller) running
// cost to the clock, so ccmalloc's extra bookkeeping shows up as the
// few-percent overhead the §4.4 control experiment measured.
type meteredMalloc struct {
	*heap.Malloc
	clock ccmalloc.Ticker
}

// BaseAllocCost and BaseFreeCost are the baseline allocator's cycle
// costs per operation (ccmalloc's are higher; see ccmalloc.AllocCost).
const (
	BaseAllocCost = 40
	BaseFreeCost  = 25
)

func (m *meteredMalloc) Alloc(size int64) (memsys.Addr, error) {
	m.clock.Tick(BaseAllocCost)
	return m.Malloc.Alloc(size)
}

func (m *meteredMalloc) AllocHint(size int64, hint memsys.Addr) (memsys.Addr, error) {
	m.clock.Tick(BaseAllocCost)
	return m.Malloc.Alloc(size)
}

func (m *meteredMalloc) Free(a memsys.Addr) error {
	m.clock.Tick(BaseFreeCost)
	return m.Malloc.Free(a)
}

// NewRegion returns the placement region ccmorph reorganizes into:
// the machine's last-level cache, colored when colorFrac > 0.
//
// Panic justification: the geometry comes from the machine's own
// last-level cache, so a failure here is a harness bug and fails fast
// (DESIGN.md §7).
func NewRegion(m *machine.Machine, colorFrac float64) *layout.Region {
	r, err := layout.NewRegion(m.Arena, layout.FromLevel(m.Cache.LastLevel()), colorFrac)
	if err != nil {
		panic(err)
	}
	return r
}

// Result is one benchmark run's outcome.
type Result struct {
	Benchmark string
	Variant   Variant
	Stats     cache.Stats
	HeapBytes int64
	Check     uint64 // workload checksum; must match across variants
}

// Cycles returns total simulated execution time.
func (r Result) Cycles() int64 { return r.Stats.TotalCycles() }
