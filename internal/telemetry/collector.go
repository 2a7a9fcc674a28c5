package telemetry

import (
	"math/bits"

	"ccl/internal/cache"
	"ccl/internal/lru"
	"ccl/internal/memsys"
)

// levelTel is one cache level's telemetry state.
type levelTel struct {
	name       string
	blockShift uint // log2(BlockSize); block sizes are validated powers of two
	// shadow is a fully-associative LRU of the level's capacity, over
	// block numbers. It also remembers every block it ever held, so
	// one Touch tells a first reference from a capacity or conflict
	// miss.
	shadow lru.Set

	accesses      int64
	hits          int64
	misses        int64
	classes       [NumClasses]int64 // indexed by MissClass
	fills         int64
	prefetchFills int64
}

// heatCounters are the per-set counters of the last-level cache.
type heatCounters struct {
	sets       int64
	blockShift uint  // log2 of the last level's block size
	setMask    int64 // sets-1 when sets is a power of two, else -1
	accesses   []int64
	misses     []int64
	conflicts  []int64
	evictions  []int64
}

// set returns the last-level set addr maps to: a shift and a mask,
// or a division when the level's set count is not a power of two
// (LevelConfig.Validate allows any count).
func (h *heatCounters) set(addr memsys.Addr) int64 {
	blk := int64(addr) >> h.blockShift
	if h.setMask >= 0 {
		return blk & h.setMask
	}
	return blk % h.sets
}

// Collector implements cache.Observer: it classifies every demand
// miss (3C), maintains last-level per-set heatmaps, and charges
// misses to registered address regions. Build one per measurement
// phase via NewCollector/Attach; Reset discards counts but keeps the
// shadow caches' contents (mirroring Hierarchy.ResetStats, so
// steady-state phases can be measured without a cold shadow).
type Collector struct {
	cfg     cache.Config
	levels  []*levelTel
	heat    heatCounters
	regions *RegionMap

	// lastLL/lastCls record whether the most recent OnAccess missed
	// the last level and its 3C class — the per-access seam the
	// sampling profiler (internal/profile) reads after forwarding an
	// event, so field-level classification reuses this collector's
	// shadow caches instead of running a second shadow simulation.
	lastLL  bool
	lastCls MissClass

	// inval marks coherence granules a remote core's store
	// invalidated while this core held them (OnInvalidate, reported
	// by a topology core's private cache). The next miss on a marked
	// granule classifies as Coherence instead of consulting the
	// shadow caches; the mark is then consumed. nil (the default) is
	// the single-core case, tested once per access.
	inval    map[int64]struct{}
	cohShift uint
}

var _ cache.Observer = (*Collector)(nil)

// NewCollector builds a collector for a hierarchy with configuration
// cfg. Attach it with Hierarchy.SetObserver (or use Attach).
func NewCollector(cfg cache.Config) *Collector {
	c := &Collector{cfg: cfg, regions: NewRegionMap(len(cfg.Levels))}
	for _, lc := range cfg.Levels {
		c.levels = append(c.levels, &levelTel{
			name:       lc.Name,
			blockShift: uint(bits.TrailingZeros64(uint64(lc.BlockSize))),
			shadow:     lru.New(int(lc.Size / lc.BlockSize)),
		})
	}
	last := cfg.Levels[len(cfg.Levels)-1]
	sets := last.Sets()
	c.heat = heatCounters{
		sets:       sets,
		blockShift: c.levels[len(c.levels)-1].blockShift,
		setMask:    -1,
		accesses:   make([]int64, sets),
		misses:     make([]int64, sets),
		conflicts:  make([]int64, sets),
		evictions:  make([]int64, sets),
	}
	if sets&(sets-1) == 0 {
		c.heat.setMask = sets - 1
	}
	return c
}

// Regions returns the collector's region map, for registering labeled
// address ranges misses should be attributed to.
func (c *Collector) Regions() *RegionMap { return c.regions }

// Reset zeroes every counter (level, heatmap, and region) without
// clearing the shadow caches or the region registrations, so a
// steady-state phase can be isolated the way Hierarchy.ResetStats
// isolates cycle counts.
func (c *Collector) Reset() {
	for _, lt := range c.levels {
		lt.accesses, lt.hits, lt.misses = 0, 0, 0
		lt.classes = [NumClasses]int64{}
		lt.fills, lt.prefetchFills = 0, 0
	}
	for i := range c.heat.accesses {
		c.heat.accesses[i] = 0
		c.heat.misses[i] = 0
		c.heat.conflicts[i] = 0
		c.heat.evictions[i] = 0
	}
	c.regions.reset()
	c.lastLL, c.lastCls = false, Compulsory
}

// classOf maps the shadow cache's state for a missing block, before
// the access touched it, to the block's 3C class (Hill): never
// referenced is compulsory; still resident in a fully-associative
// cache of the same capacity means the set mapping is at fault
// (conflict); referenced but pushed out is capacity.
var classOf = [...]MissClass{
	lru.Absent:   Compulsory,
	lru.Resident: Conflict,
	lru.Evicted:  Capacity,
}

// OnAccess implements cache.Observer.
func (c *Collector) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	last := len(c.levels) - 1
	c.lastLL = false
	reg := c.regions.find(addr)
	reg.accesses++
	// A pending invalidation mark overrides the 3C shadow verdict:
	// the block is gone because a remote store took it, whatever the
	// shadow caches think. Consumed below once any level misses.
	coherent := false
	if c.inval != nil {
		_, coherent = c.inval[int64(addr)>>c.cohShift]
	}
	consumed := false
	for i, lt := range c.levels {
		if hitLevel != -1 && i > hitLevel {
			break
		}
		lt.accesses++
		prior := lt.shadow.Touch(int64(addr) >> lt.blockShift)
		if i == hitLevel {
			lt.hits++
		} else {
			lt.misses++
			cls := classOf[prior]
			if coherent {
				cls = Coherence
				consumed = true
			}
			lt.classes[cls]++
			reg.misses[i]++
			if i == last {
				c.lastLL, c.lastCls = true, cls
				reg.classes[cls]++
			}
		}
		if i == last {
			set := c.heat.set(addr)
			c.heat.accesses[set]++
			if c.lastLL {
				c.heat.misses[set]++
				if c.lastCls == Conflict {
					c.heat.conflicts[set]++
				}
			}
		}
	}
	if consumed {
		delete(c.inval, int64(addr)>>c.cohShift)
	}
}

// OnEvict implements cache.Observer.
func (c *Collector) OnEvict(level int, addr memsys.Addr, dirty bool) {
	if level == len(c.levels)-1 {
		c.heat.evictions[c.heat.set(addr)]++
	}
}

// OnFill implements cache.Observer.
func (c *Collector) OnFill(level int, addr memsys.Addr, prefetch bool) {
	lt := c.levels[level]
	lt.fills++
	if prefetch {
		lt.prefetchFills++
	}
}

// LastLLMissClass reports whether the most recent OnAccess missed the
// last cache level, and if so that miss's 3C class. The sampling
// profiler calls it immediately after forwarding an access, so one
// shadow simulation serves both the aggregate counters and the
// per-field classification.
func (c *Collector) LastLLMissClass() (MissClass, bool) { return c.lastCls, c.lastLL }

// OnInvalidate implements cache.Observer: a remote core's store
// invalidated the span-byte coherence granule at addr while this
// collector's core held it. The granule's next miss (at every level it
// misses) classifies as Coherence, and the invalidation is charged to
// the region containing the granule base. span is the coherence
// granule (a power of two) and is fixed on first call.
func (c *Collector) OnInvalidate(addr memsys.Addr, span int64) {
	if c.inval == nil {
		c.inval = make(map[int64]struct{})
		c.cohShift = uint(bits.TrailingZeros64(uint64(span)))
	}
	c.inval[int64(addr)>>c.cohShift] = struct{}{}
	c.regions.find(addr).invalidations++
}

// Misses returns the 4C breakdown of demand misses at level i.
// Coherence is always zero for collectors never fed invalidation
// marks (every single-core run).
func (c *Collector) Misses(i int) (compulsory, capacity, conflict, coherence int64) {
	cl := c.levels[i].classes
	return cl[Compulsory], cl[Capacity], cl[Conflict], cl[Coherence]
}
