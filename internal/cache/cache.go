// Package cache implements a parameterized, multi-level, set-associative
// cache simulator: cycle accounting, per-access telemetry observers
// (Observer: access/evict/fill/invalidate callbacks consumed by
// package telemetry for 3C/4C miss classification, set heatmaps, and
// per-region attribution), and a batched trace-replay entry point
// (trace.AccessTrace) for replaying captured access streams at full
// speed.
//
// The simulator plays the role RSIM and the UltraSPARC memory hierarchy
// played in the paper: every load and store issued by a simulated
// program is mapped to cache sets by address, hits and misses are
// charged their configured latencies, and prefetches are modeled with
// fill-ready cycles so that latency can be partially hidden by useful
// work — the property that makes prefetching competitive on some
// workloads and layout superior on others (paper §4.4).
//
// The demand-access path is the hottest code in the repository (every
// experiment's every load and store funnels through Access), so it is
// engineered to be allocation-free: set/way state lives in one
// contiguous line slice per level indexed arithmetically, block and
// set arithmetic uses precomputed shifts and masks, the data TLB is
// one flat LRU set (tlb.go, package lru) rather than a map or a
// scanned array, spanning accesses split without building a slice,
// and the nil-observer path costs one predictable pointer test per
// event site. TestAccessNoAllocs pins the zero-alloc property; the
// differential oracle (internal/oracle) pins that none of this
// diverges from the naive reference simulator.
package cache

import (
	"fmt"
	"math/bits"

	"ccl/internal/lru"
	"ccl/internal/memsys"
)

// AccessKind distinguishes demand loads, demand stores, and prefetches.
type AccessKind int

const (
	// Load is a demand read.
	Load AccessKind = iota
	// Store is a demand write.
	Store
	// PrefetchRead is a non-binding prefetch: it installs the block
	// but the requester does not wait for the fill.
	PrefetchRead
)

// String returns the conventional name of the access kind.
func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case PrefetchRead:
		return "prefetch"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name      string // "L1", "L2", ...
	Size      int64  // total capacity in bytes
	Assoc     int    // ways per set; 1 = direct-mapped
	BlockSize int64  // line size in bytes
	// Latency is the number of cycles added when an access is
	// satisfied at this level (beyond the latencies of the levels
	// above it). The paper's §4.1 machine: L1 = 1, L2 adds 6,
	// memory adds 64. Never negative: the clock must not run
	// backward.
	Latency int64
	// WriteBack selects write-back with dirty bits; false selects
	// write-through (dirty blocks never cause writeback traffic).
	WriteBack bool
}

// Validate reports a configuration error, if any.
func (c LevelConfig) Validate() error {
	if c.Size <= 0 || c.Assoc <= 0 || c.BlockSize <= 0 {
		return fmt.Errorf("cache: level %q: size, assoc, and block size must be positive", c.Name)
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache: level %q: block size %d is not a power of two", c.Name, c.BlockSize)
	}
	// Two divisions instead of Size%(BlockSize*Assoc): the product
	// overflows for a decoded associativity near 2^60, and a zero
	// divisor panics.
	if c.Size%c.BlockSize != 0 || (c.Size/c.BlockSize)%int64(c.Assoc) != 0 {
		return fmt.Errorf("cache: level %q: size %d not divisible by assoc %d * block %d",
			c.Name, c.Size, c.Assoc, c.BlockSize)
	}
	if c.Latency < 0 {
		return fmt.Errorf("cache: level %q: negative latency %d", c.Name, c.Latency)
	}
	return nil
}

// Sets returns the number of sets at this level.
func (c LevelConfig) Sets() int64 { return c.Size / (c.BlockSize * int64(c.Assoc)) }

// Config describes a whole hierarchy.
type Config struct {
	Levels []LevelConfig
	// MemLatency is charged when an access misses every level.
	MemLatency int64
	// TLB models a fully-associative LRU data TLB when Entries is
	// positive. The paper's placement techniques explicitly trade on
	// page locality ("putting the items on the same page is likely
	// to reduce the program's working set, and improve TLB
	// performance", §3.2.1), and §5.4 credits TLB effects for part
	// of the measured speedup its cache-only model misses.
	TLB TLBConfig
}

// Prefetch timing (paper §4.4).
const (
	// prefetchIssue is the cycle cost of issuing one software
	// prefetch instruction.
	prefetchIssue = 1
	// robLead caps how many cycles of miss latency a hardware (free)
	// prefetch can hide. The paper's hardware scheme prefetches
	// addresses of loads already in the reorder buffer, so its lead
	// time is bounded by the ROB window — a few tens of cycles — no
	// matter how early the address value was produced.
	robLead = 16
)

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if len(c.Levels) == 0 {
		return fmt.Errorf("cache: config needs at least one level")
	}
	for _, l := range c.Levels {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	if c.MemLatency <= 0 {
		return fmt.Errorf("cache: memory latency must be positive")
	}
	return nil
}

// PaperHierarchy returns the measurement machine of §4.1: a Sun
// Ultraserver E5000 with a 16 KB direct-mapped L1 (16-byte blocks,
// 1-cycle hits), a 1 MB direct-mapped L2 (64-byte blocks, +6 cycles),
// a 64-cycle memory penalty, and a 64-entry data TLB over 8 KB pages
// (the UltraSPARC-I dTLB).
func PaperHierarchy() Config {
	return Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 16 << 10, Assoc: 1, BlockSize: 16, Latency: 1},
			{Name: "L2", Size: 1 << 20, Assoc: 1, BlockSize: 64, Latency: 6, WriteBack: true},
		},
		MemLatency: 64,
		TLB:        TLBConfig{Entries: 64, PageSize: 8192, Penalty: 30},
	}
}

// ScaledHierarchy returns the §4.1 machine with the L2 capacity scaled
// down by factor (a power-of-two divisor) so that paper-scale
// structure:cache ratios can be reproduced with small structures. The
// L1 is scaled by the same factor, floored at 1 KB.
func ScaledHierarchy(factor int64) Config {
	c := PaperHierarchy()
	if factor <= 1 {
		return c
	}
	for i := range c.Levels {
		s := c.Levels[i].Size / factor
		min := c.Levels[i].BlockSize * int64(c.Levels[i].Assoc) * 4
		if s < min {
			s = min
		}
		c.Levels[i].Size = s
	}
	// Scale TLB reach with the caches, floored at 16 entries so a
	// scaled machine can still hold a tree's root-to-leaf path.
	c.TLB.Entries = int(int64(c.TLB.Entries) / factor)
	if c.TLB.Entries < 16 {
		c.TLB.Entries = 16
	}
	return c
}

// RSIMHierarchy returns the Table 1 simulation machine: 16 KB
// direct-mapped L1 and 256 KB 2-way L2 with 128-byte lines, 1-cycle L1
// hits, 9-cycle L1 misses, and a 60-cycle L2 miss penalty.
func RSIMHierarchy() Config {
	return Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 16 << 10, Assoc: 1, BlockSize: 128, Latency: 1},
			{Name: "L2", Size: 256 << 10, Assoc: 2, BlockSize: 128, Latency: 8, WriteBack: true},
		},
		MemLatency: 60,
	}
}

// Observer receives per-access telemetry callbacks from a Hierarchy.
// All methods are invoked synchronously on the simulation's goroutine;
// implementations must not call back into the hierarchy. A nil
// observer (the default) costs one pointer comparison per event site,
// so instrumentation is free when disabled.
//
// Package telemetry provides the standard implementation (3C miss
// classification, set heatmaps, per-region attribution); the interface
// lives here so the simulator core stays dependency-free.
type Observer interface {
	// OnAccess is reported once per demand access to a single block,
	// after the access resolves. hitLevel is the index of the level
	// that satisfied it, or -1 when it went to memory. Levels
	// 0..hitLevel-1 (or all levels, when -1) missed.
	OnAccess(addr memsys.Addr, kind AccessKind, hitLevel int)
	// OnEvict is reported when a valid block is evicted from level;
	// addr is the evicted block's base address.
	OnEvict(level int, addr memsys.Addr, dirty bool)
	// OnFill is reported when a block is installed at level.
	// prefetch marks fills initiated by a prefetch rather than a
	// demand access.
	OnFill(level int, addr memsys.Addr, prefetch bool)
	// OnInvalidate is reported when Invalidate drops a resident copy
	// of the span-byte coherence granule at addr — a remote core's
	// store in a topology. Only a topology's directory calls
	// Invalidate, so a hierarchy used alone never reports it.
	OnInvalidate(addr memsys.Addr, span int64)
}

// line is one cache block's bookkeeping beyond its tag (tags live in
// the level's dense tag slice so lookups scan contiguous memory). The
// struct packs into 32 bytes — two lines per 64-byte cache line of the
// host — and the struct-audit test (audit_test.go) locks that in.
type line struct {
	lastUse    int64 // for LRU
	fillReady  int64 // cycle at which the fill completes
	minStall   int64 // ROB-lead floor on the first demand touch (PrefetchFree)
	dirty      bool
	prefetched bool // installed by a prefetch, not yet demand-touched
}

// LevelStats holds the per-level counters.
type LevelStats struct {
	Accesses    int64 // demand accesses (loads + stores)
	Hits        int64
	Misses      int64
	Evictions   int64
	Writebacks  int64
	Prefetches  int64 // prefetch installs requested at this level
	PrefetchHit int64 // demand accesses that hit a prefetched block
	LateHits    int64 // hits that stalled on an in-flight fill
}

// MissRate returns misses/accesses, or 0 when idle.
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// level is one cache level's state, flattened: way w of set s lives at
// index s*assoc+w in two parallel contiguous slices — a dense tag
// slice the lookup scan streams through (one 8-byte word per way; -1
// marks an invalid way, unreachable by real tags since addresses are
// non-negative) and a line slice holding the rest of each block's
// bookkeeping. The flat layout replaces the seed's [][]line (one heap
// object per set): a lookup is one slice index instead of two
// dependent pointer loads.
type level struct {
	cfg   LevelConfig
	tags  []int64 // sets*assoc block tags; -1 = invalid way
	lines []line  // parallel per-way metadata

	// Precomputed geometry, so the per-access path does no division
	// when the set count is a power of two (every named hierarchy's
	// is; random sweep geometries fall back to the division path).
	assoc      int64
	nsets      int64
	latency    int64 // cfg.Latency, hoisted off the config struct
	writeBack  bool
	blockShift uint  // log2(BlockSize); block sizes are validated powers of two
	setShift   uint  // log2(nsets) when nsets is a power of two
	setMask    int64 // nsets-1 when nsets is a power of two, else -1
}

func newLevel(cfg LevelConfig) level {
	nsets := cfg.Sets()
	l := level{
		cfg:        cfg,
		tags:       make([]int64, nsets*int64(cfg.Assoc)),
		lines:      make([]line, nsets*int64(cfg.Assoc)),
		assoc:      int64(cfg.Assoc),
		nsets:      nsets,
		latency:    cfg.Latency,
		writeBack:  cfg.WriteBack,
		blockShift: uint(bits.TrailingZeros64(uint64(cfg.BlockSize))),
		setMask:    -1,
	}
	for i := range l.tags {
		l.tags[i] = -1
	}
	if nsets&(nsets-1) == 0 {
		l.setMask = nsets - 1
		l.setShift = uint(bits.TrailingZeros64(uint64(nsets)))
	}
	return l
}

func (l *level) setAndTag(addr memsys.Addr) (int64, int64) {
	blk := int64(addr) >> l.blockShift
	if l.setMask >= 0 {
		return blk & l.setMask, blk >> l.setShift
	}
	return blk % l.nsets, blk / l.nsets
}

// blockAddr inverts setAndTag: the base address of the block a
// (set, tag) pair names. Eviction callbacks use it to report which
// block a victim held.
func (l *level) blockAddr(set, tag int64) memsys.Addr {
	return memsys.Addr((tag*l.nsets + set) << l.blockShift)
}

// lookup returns the way holding addr, or -1.
func (l *level) lookup(addr memsys.Addr) (set int64, way int) {
	set, tag := l.setAndTag(addr)
	base := set * l.assoc
	for w := int64(0); w < l.assoc; w++ {
		if l.tags[base+w] == tag {
			return set, int(w)
		}
	}
	return set, -1
}

// victim picks the LRU way of a set, preferring invalid ways, ties
// broken toward the lowest way.
func (l *level) victim(set int64) int64 {
	base := set * l.assoc
	best := int64(0)
	for w := int64(0); w < l.assoc; w++ {
		if l.tags[base+w] < 0 {
			return w
		}
		if l.lines[base+w].lastUse < l.lines[base+best].lastUse {
			best = w
		}
	}
	return best
}

// Stats aggregates the whole hierarchy's counters.
type Stats struct {
	Levels []LevelStats
	// TLB counters (zero when the TLB is disabled).
	TLBAccesses int64
	TLBMisses   int64
	// Cycle accounting.
	BusyCycles      int64 // compute work, via Tick
	L1HitCycles     int64 // the 1-cycle L1 access cost of each demand access
	LoadStallCycles int64 // demand-load cycles beyond the L1 hit cost
	StoreStall      int64 // demand-store cycles beyond the L1 hit cost
	PrefetchIssue   int64 // cycles spent issuing software prefetches
	MemAccesses     int64 // accesses that went all the way to memory
}

// TotalCycles returns the simulated execution time.
func (s Stats) TotalCycles() int64 {
	return s.BusyCycles + s.L1HitCycles + s.LoadStallCycles + s.StoreStall + s.PrefetchIssue
}

// probe is one level's descent result, carried from the lookup scan
// to the install phase so a miss does not redo the set/tag arithmetic
// or the victim scan (the scan that found no matching tag already saw
// every way's recency).
type probe struct {
	set, tag int64
	victim   int64
}

// Hierarchy is a multi-level cache simulator with a cycle clock.
//
// A Hierarchy is not safe for concurrent use; per-run contexts
// (internal/sim) give each worker its own instance (DESIGN.md §8).
type Hierarchy struct {
	cfg           Config
	levels        []level
	minBlockShift uint // log2 of the smallest block size of any level
	now           int64
	stats         Stats
	obs           Observer // nil when telemetry is disabled

	// probes is the demand descent's per-level scratch, sized at
	// construction so the access path never allocates.
	probes []probe

	// tlb is the data TLB, nil when disabled (tlb.go).
	tlb *tlb
}

// New builds a hierarchy from cfg. It panics on an invalid
// configuration: hierarchies are constructed from trusted experiment
// setup code, and a bad geometry is a programming error.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg, levels: make([]level, 0, len(cfg.Levels))}
	minBlock := cfg.Levels[0].BlockSize
	for _, lc := range cfg.Levels {
		h.levels = append(h.levels, newLevel(lc))
		if lc.BlockSize < minBlock {
			minBlock = lc.BlockSize
		}
	}
	h.minBlockShift = uint(bits.TrailingZeros64(uint64(minBlock)))
	h.probes = make([]probe, len(cfg.Levels))
	if cfg.TLB.Entries > 0 {
		if err := cfg.TLB.validate(); err != nil {
			panic(err)
		}
		h.tlb = newTLB(cfg.TLB)
	}
	h.stats.Levels = make([]LevelStats, len(cfg.Levels))
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// SetObserver attaches (or, with nil, detaches) a telemetry observer.
// Only one observer can be attached; compose externally if several
// consumers are needed.
func (h *Hierarchy) SetObserver(o Observer) { h.obs = o }

// Level returns the configuration of level i (0 = L1).
func (h *Hierarchy) Level(i int) LevelConfig { return h.cfg.Levels[i] }

// LastLevel returns the configuration of the last cache level, the
// one ccmalloc and ccmorph target (paper §3.2.1: "ccmalloc focuses
// only on L2 cache blocks").
func (h *Hierarchy) LastLevel() LevelConfig { return h.cfg.Levels[len(h.cfg.Levels)-1] }

// Now returns the current simulated cycle.
func (h *Hierarchy) Now() int64 { return h.now }

// Stats returns a copy of the accumulated counters.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	s.Levels = append([]LevelStats(nil), h.stats.Levels...)
	return s
}

// ResetStats zeroes the counters without touching cache contents.
// Experiments use it to discard cold-start transients, mirroring the
// paper's steady-state analysis (§5.1).
func (h *Hierarchy) ResetStats() {
	h.stats = Stats{Levels: make([]LevelStats, len(h.cfg.Levels))}
}

// Flush invalidates every block in every level and clears the TLB.
func (h *Hierarchy) Flush() {
	if h.tlb != nil {
		h.tlb.set.Reset()
	}
	for i := range h.levels {
		l := &h.levels[i]
		for j := range l.tags {
			l.tags[j] = -1
			l.lines[j] = line{}
		}
	}
}

// Tick charges n cycles of compute (busy) time. Busy time can hide
// in-flight prefetch latency: a block prefetched 100 cycles of work
// ago is ready when the demand access finally arrives.
func (h *Hierarchy) Tick(n int64) {
	if n < 0 {
		panic("cache: Tick with negative cycles")
	}
	h.now += n
	h.stats.BusyCycles += n
}

// Access simulates a demand access of size bytes at addr and returns
// the total cycles it cost (including the L1 hit cycle). The clock
// advances by the returned amount.
//
// A spanning access is split into one sub-access per covered block at
// the granularity of the hierarchy's smallest block size, so each
// sub-access touches exactly one block at every level. The first
// sub-access keeps the original address (its offset cannot cross a
// block boundary at any level); the rest are aligned. The split is
// computed arithmetically — no slice is built — so the demand path
// performs no allocation (TestAccessNoAllocs).
//
// Splitting at L1's block size instead of the hierarchy minimum was a
// bug the differential oracle caught: with a lower level whose blocks
// are smaller than L1's, a spanning access was simulated as a single
// access to the L1 block base, touching the wrong small block and
// skipping the others. See
// internal/oracle/testdata/blocks_covering_min.trace.
func (h *Hierarchy) Access(addr memsys.Addr, size int64, kind AccessKind) int64 {
	if kind == PrefetchRead {
		return h.Prefetch(addr)
	}
	if size <= 0 {
		panic("cache: Access with non-positive size")
	}
	sh := h.minBlockShift
	first := int64(addr) >> sh
	last := (int64(addr) + size - 1) >> sh
	total := h.accessOne(addr, kind)
	for blk := first + 1; blk <= last; blk++ {
		total += h.accessOne(memsys.Addr(blk<<sh), kind)
	}
	return total
}

// tlbCharge consults the TLB for addr's page, returning the added
// translation latency. The caller has already checked h.tlb != nil so
// TLB-less hierarchies skip the call entirely.
func (h *Hierarchy) tlbCharge(addr memsys.Addr) int64 {
	t := h.tlb
	h.stats.TLBAccesses++
	if t.set.Touch(t.pageOf(addr)) == lru.Resident {
		return 0
	}
	h.stats.TLBMisses++
	return t.penalty
}

// accessOne handles a demand access contained in a single block at
// every level. The descent fuses the tag lookup with victim selection:
// the scan that establishes a miss has already seen every way's
// recency, so the install phase reuses the probe instead of rescanning
// the set (h.probes[i] is only written — and only read — for levels
// that missed).
func (h *Hierarchy) accessOne(addr memsys.Addr, kind AccessKind) int64 {
	var latency int64
	if h.tlb != nil {
		latency = h.tlbCharge(addr)
	}
	hitLevel := -1
	var stallUntil int64
	stats := h.stats.Levels

	for i := range h.levels {
		l := &h.levels[i]
		st := &stats[i]
		st.Accesses++
		latency += l.latency
		set, tag := l.setAndTag(addr)
		base := set * l.assoc
		way := int64(-1)
		vict := int64(0)
		if l.assoc == 1 {
			// Direct-mapped: one compare, and the victim is the slot.
			if l.tags[base] == tag {
				way = 0
			}
		} else {
			tags := l.tags[base : base+l.assoc]
			lines := l.lines[base : base+l.assoc]
			haveInvalid := false
			for w := range tags {
				tg := tags[w]
				if tg == tag {
					way = int64(w)
					break
				}
				if !haveInvalid {
					if tg < 0 {
						vict, haveInvalid = int64(w), true
					} else if lines[w].lastUse < lines[vict].lastUse {
						vict = int64(w)
					}
				}
			}
		}
		if way >= 0 {
			ln := &l.lines[base+way]
			st.Hits++
			if ln.prefetched {
				st.PrefetchHit++
				ln.prefetched = false
				if ln.minStall > 0 {
					// Hardware prefetch: at best, the fill began a
					// ROB-window before this use.
					stallUntil = h.now + ln.minStall
					ln.minStall = 0
				}
			}
			if ln.fillReady > h.now && ln.fillReady > stallUntil {
				stallUntil = ln.fillReady
				st.LateHits++
			}
			ln.lastUse = h.now
			if kind == Store && l.writeBack {
				ln.dirty = true
			}
			hitLevel = i
			break
		}
		st.Misses++
		h.probes[i] = probe{set: set, tag: tag, victim: vict}
	}

	if hitLevel == -1 {
		latency += h.cfg.MemLatency
		h.stats.MemAccesses++
	}

	// Extra stall for an in-flight fill (late prefetch).
	if stallUntil > h.now+latency {
		latency = stallUntil - h.now
	}

	// Install the block in every level above the hit level
	// (inclusive hierarchy); fills complete when the access does. An
	// L1 hit has nothing to install.
	if hitLevel != 0 {
		h.installProbed(hitLevel, h.now+latency, kind)
	}

	if h.obs != nil {
		h.obs.OnAccess(addr, kind, hitLevel)
	}

	// Attribute cycles: 1 L1-hit cycle per access, remainder is stall.
	l1 := h.levels[0].latency
	if latency < l1 {
		latency = l1
	}
	h.stats.L1HitCycles += l1
	if kind == Store {
		h.stats.StoreStall += latency - l1
	} else {
		h.stats.LoadStallCycles += latency - l1
	}
	h.now += latency
	return latency
}

// installProbed places the accessed block into levels [0, hitLevel) —
// or all levels when hitLevel is -1 — reusing the demand descent's
// probes: nothing touches a set between the descent and this install,
// so each probe's victim is still the set's LRU way.
func (h *Hierarchy) installProbed(hitLevel int, ready int64, kind AccessKind) {
	top := hitLevel
	if top == -1 {
		top = len(h.levels)
	}
	for i := 0; i < top; i++ {
		l := &h.levels[i]
		p := h.probes[i]
		slot := p.set*l.assoc + p.victim
		if old := l.tags[slot]; old >= 0 {
			st := &h.stats.Levels[i]
			st.Evictions++
			if l.lines[slot].dirty {
				st.Writebacks++
			}
			if h.obs != nil {
				h.obs.OnEvict(i, l.blockAddr(p.set, old), l.lines[slot].dirty)
			}
		}
		l.tags[slot] = p.tag
		l.lines[slot] = line{
			lastUse:   h.now,
			fillReady: ready,
			dirty:     kind == Store && l.writeBack,
		}
		if h.obs != nil {
			h.obs.OnFill(i, l.blockAddr(p.set, p.tag), false)
		}
	}
}

// install places addr's block into levels [0, hitLevel) — or all
// levels when hitLevel is -1 — evicting LRU victims. It recomputes
// each level's geometry; the demand path uses installProbed instead.
func (h *Hierarchy) install(addr memsys.Addr, hitLevel int, ready int64, kind AccessKind, prefetched bool) {
	top := hitLevel
	if top == -1 {
		top = len(h.levels)
	}
	for i := 0; i < top; i++ {
		l := &h.levels[i]
		set, tag := l.setAndTag(addr)
		h.fill(i, l, set, tag, l.victim(set), ready, kind == Store && l.writeBack, prefetched)
	}
}

// fill installs tag into way of set at level i, evicting the current
// occupant if valid.
func (h *Hierarchy) fill(i int, l *level, set, tag, way int64, ready int64, dirty, prefetched bool) {
	slot := set*l.assoc + way
	if old := l.tags[slot]; old >= 0 {
		st := &h.stats.Levels[i]
		st.Evictions++
		if l.lines[slot].dirty {
			st.Writebacks++
		}
		if h.obs != nil {
			h.obs.OnEvict(i, l.blockAddr(set, old), l.lines[slot].dirty)
		}
	}
	l.tags[slot] = tag
	l.lines[slot] = line{
		lastUse:    h.now,
		fillReady:  ready,
		dirty:      dirty,
		prefetched: prefetched,
	}
	if h.obs != nil {
		h.obs.OnFill(i, l.blockAddr(set, tag), prefetched)
	}
}

// Prefetch issues a non-binding prefetch for addr's block. It charges
// only the issue cost; the fill proceeds in the background and
// completes after the full miss latency. Returns the cycles charged.
func (h *Hierarchy) Prefetch(addr memsys.Addr) int64 {
	return h.prefetchCapped(addr, prefetchIssue, false)
}

// PrefetchFree is Prefetch at zero issue cost for hardware-initiated
// prefetches (the machine's pointer-prefetch baseline). Unlike
// software prefetches, its latency coverage is capped by the ROB
// lead: a demand touch still waits for all but robLead cycles of the
// fill.
func (h *Hierarchy) PrefetchFree(addr memsys.Addr) { h.prefetchCapped(addr, 0, true) }

func (h *Hierarchy) prefetchCapped(addr memsys.Addr, cost int64, robCapped bool) int64 {
	h.stats.PrefetchIssue += cost
	h.now += cost

	// Prefetches that miss the TLB are dropped, as real hardware
	// drops them rather than taking a translation fault. The probe
	// does not refresh the page's recency: a dropped prefetch is
	// invisible to the translation hardware.
	if h.tlb != nil && !h.tlb.set.Contains(h.tlb.pageOf(addr)) {
		return cost
	}

	// A prefetch that hits everywhere is free beyond issue cost.
	if _, way := h.levels[0].lookup(addr); way >= 0 {
		return cost
	}
	hitLevel := -1
	lat := int64(0)
	for i := range h.levels {
		l := &h.levels[i]
		lat += l.cfg.Latency
		if _, way := l.lookup(addr); way >= 0 {
			hitLevel = i
			break
		}
	}
	if hitLevel == -1 {
		lat += h.cfg.MemLatency
	}
	for i := range h.stats.Levels {
		if hitLevel == -1 || i < hitLevel {
			h.stats.Levels[i].Prefetches++
		}
	}
	h.install(addr, hitLevel, h.now+lat, Load, true)
	if robCapped {
		if floor := lat - robLead; floor > 0 {
			h.setMinStall(addr, hitLevel, floor)
		}
	}
	return cost
}

// setMinStall records the ROB-lead floor on the freshly installed
// copies of addr's block.
func (h *Hierarchy) setMinStall(addr memsys.Addr, hitLevel int, floor int64) {
	top := hitLevel
	if top == -1 {
		top = len(h.levels)
	}
	for i := 0; i < top; i++ {
		l := &h.levels[i]
		if set, way := l.lookup(addr); way >= 0 {
			l.lines[set*l.assoc+int64(way)].minStall = floor
		}
	}
}

// Contains reports whether addr's block is resident at level i.
// Tests use it to assert placement effects.
func (h *Hierarchy) Contains(i int, addr memsys.Addr) bool {
	_, way := h.levels[i].lookup(addr)
	return way >= 0
}
