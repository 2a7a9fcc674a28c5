// Package profile is the sampling cache-miss profiler: the layer that
// turns the simulator into the "cache behavior profiler" the paper
// assumes exists when it decides which fields of which structures to
// split, reorder, or colocate (§3.1).
//
// It is built entirely on the cache.Observer seam — the simulator core
// is untouched, the observer-nil path still costs one pointer compare,
// and attaching a Profiler cannot change a run's cycles or stats
// (FuzzProfilerDifferential pins that). Three views come out of one
// pass:
//
//   - field-level attribution: every sampled access resolves through
//     the region map's per-structure field maps (layout.FieldMap) to
//     structure.field, with hit/miss/3C counters per field and a
//     hot/cold ranking that feeds split/reorder decisions directly;
//   - phase time series: windowed (epoch) counters of miss rate, 3C
//     mix, and per-set pressure, so phase changes — build vs search,
//     before vs after a morph — are visible in time, not just in
//     totals;
//   - pprof export: the sampled profile encoded as profile.proto
//     (pprof.go), so `go tool pprof -top` and flamegraphs work on
//     simulator output.
//
// Sampling uses a counter-decrement fast path: an unsampled access
// costs the epoch counters (a handful of adds) plus one decrement;
// only every Nth access pays the region binary search. The steady
// state allocates nothing (TestProfilerSteadyStateAllocs).
package profile

import (
	"fmt"
	"strings"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/layout"
	"ccl/internal/memsys"
	"ccl/internal/telemetry"
)

// Config parameterizes a Profiler.
type Config struct {
	// SampleEvery samples every Nth demand access for field-level
	// attribution; values below 1 mean 1 (sample everything).
	// Sampling only thins the per-field counters — epochs and the
	// underlying collector always see every access. The period is
	// deterministic, so a period sharing a factor with a periodic
	// access pattern aliases with it (an even period over an
	// alternating key/pointer walk never samples the keys); prefer
	// odd, ideally prime, periods.
	SampleEvery int64
	// EpochLen is the phase-series window in demand accesses.
	// Values below 1 select DefaultEpochLen.
	EpochLen int64
	// MaxEpochs bounds the series length: when the series would
	// exceed it, adjacent epochs are merged pairwise and the epoch
	// length doubles, so arbitrarily long runs profile in bounded
	// memory with uniform windows. Values below 2 select
	// DefaultMaxEpochs.
	MaxEpochs int
}

// Defaults for Config's zero values.
const (
	DefaultEpochLen  = 1 << 15
	DefaultMaxEpochs = 512
)

func (c Config) withDefaults() Config {
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	if c.EpochLen < 1 {
		c.EpochLen = DefaultEpochLen
	}
	if c.MaxEpochs < 2 {
		c.MaxEpochs = DefaultMaxEpochs
	}
	return c
}

// fieldKey names one attribution bucket of a structure.
const (
	// WholeStruct is the pseudo-field charged when a region has no
	// field map (attribution stops at structure granularity).
	WholeStruct = "(all)"
	// Padding is the pseudo-field charged when an offset falls in a
	// gap between mapped fields.
	Padding = "(padding)"
)

// rec is one attribution bucket's sampled counters.
type rec struct {
	accesses int64
	l1Misses int64
	llMisses int64
	classes  [telemetry.NumClasses]int64 // MissClass-indexed, last level
	stall    int64                       // estimated stall cycles (stallEst table)
}

func (r *rec) add(l1Miss, llMiss bool, cls telemetry.MissClass, stall int64) {
	r.accesses++
	if l1Miss {
		r.l1Misses++
	}
	if llMiss {
		r.llMisses++
		r.classes[cls]++
	}
	r.stall += stall
}

// structRec is one region's attribution state: a bucket per mapped
// field plus the two pseudo-buckets.
type structRec struct {
	reg     *telemetry.Region
	fields  []rec // parallel to reg.FieldMap().Fields
	whole   rec   // no field map, or offset unavailable
	padding rec   // gaps between mapped fields
}

// epochState is the open epoch's accumulator.
type epochState struct {
	accesses int64
	l1Misses int64
	llMisses int64
	classes  [telemetry.NumClasses]int64
}

// Profiler implements cache.Observer. It owns a telemetry.Collector,
// forwards every event to it first (so the 3C shadow simulation and
// the aggregate report stay exact), then layers sampling, field
// attribution, and the epoch series on top. Like the Collector, a
// Profiler is confined to its run's goroutine.
type Profiler struct {
	cfg   Config
	inner *telemetry.Collector

	// Sampling fast path: countdown to the next sampled access.
	countdown int64
	sampled   int64
	accesses  int64

	// Field attribution, keyed by region with deterministic order.
	byRegion map[*telemetry.Region]*structRec
	order    []*structRec

	// Epoch series.
	epochLen   int64
	cur        epochState
	epochs     []Epoch
	setScratch []int64 // last-level per-set misses within the open epoch

	// Geometry, hoisted from the cache config.
	llBlockSize int64
	llSets      int64
	lastLevel   int
	// stallEst[hitLevel+1] estimates the stall cycles (beyond the L1
	// hit cost) of an access satisfied at hitLevel; index 0 is a full
	// miss to memory. TLB penalties are not included — this is a
	// ranking weight, not the cycle-exact account (the simulator's
	// Stats carry that).
	stallEst []int64
}

var _ cache.Observer = (*Profiler)(nil)

// New builds a profiler for a hierarchy with configuration cacheCfg.
// Attach it with Hierarchy.SetObserver, or use Attach.
func New(cacheCfg cache.Config, cfg Config) *Profiler {
	cfg = cfg.withDefaults()
	last := cacheCfg.Levels[len(cacheCfg.Levels)-1]
	p := &Profiler{
		cfg:         cfg,
		inner:       telemetry.NewCollector(cacheCfg),
		countdown:   cfg.SampleEvery,
		byRegion:    map[*telemetry.Region]*structRec{},
		epochLen:    cfg.EpochLen,
		setScratch:  make([]int64, last.Sets()),
		llBlockSize: last.BlockSize,
		llSets:      last.Sets(),
		lastLevel:   len(cacheCfg.Levels) - 1,
		epochs:      make([]Epoch, 0, cfg.MaxEpochs),
	}
	p.stallEst = make([]int64, len(cacheCfg.Levels)+1)
	var sum int64
	for i, lc := range cacheCfg.Levels {
		if i > 0 {
			sum += lc.Latency
		}
		p.stallEst[i+1] = sum
	}
	p.stallEst[0] = sum + cacheCfg.MemLatency
	return p
}

// Attach builds a profiler for h's geometry and installs it as the
// hierarchy's observer, returning it for inspection — the profiling
// counterpart of telemetry.Attach:
//
//	prof := profile.Attach(m.Cache, profile.Config{SampleEvery: 4})
//	trees.MustBuild(...).RegisterNodes(prof.Regions(), "bst-nodes")
//	... workload ...
//	report := prof.Report()
func Attach(h *cache.Hierarchy, cfg Config) *Profiler {
	p := New(h.Config(), cfg)
	h.SetObserver(p)
	return p
}

// Collector returns the wrapped telemetry collector; its aggregate
// Report remains available alongside the profile.
func (p *Profiler) Collector() *telemetry.Collector { return p.inner }

// Regions returns the region map sampled accesses resolve against.
// Register structures (and their field maps) here.
func (p *Profiler) Regions() *telemetry.RegionMap { return p.inner.Regions() }

// Reset discards every profile counter — field buckets, the epoch
// series, the open epoch, and the sampling countdown — and resets the
// wrapped collector, keeping region registrations and field maps (and,
// like Collector.Reset, the 3C shadow state), so a steady-state phase
// can be isolated.
func (p *Profiler) Reset() {
	p.inner.Reset()
	p.countdown = p.cfg.SampleEvery
	p.sampled, p.accesses = 0, 0
	// Drop the lazily-created struct records entirely (they rebuild on
	// the next sample) so a reset profiler reports exactly like a
	// fresh one.
	clear(p.byRegion)
	p.order = p.order[:0]
	p.cur = epochState{}
	p.epochLen = p.cfg.EpochLen
	p.epochs = p.epochs[:0]
	for i := range p.setScratch {
		p.setScratch[i] = 0
	}
}

// SamplePeriodJitterless checks the configured sample period against
// the element geometries registered so far and rejects periods that
// can alias with them. The sampling countdown is deterministic, so a
// period sharing a factor with a workload's access cycle samples the
// same phase of that cycle forever: an even period over a pointer
// walk that alternates key and link loads on power-of-two-sized
// elements never samples one of the two fields, and the field table
// silently reports it cold (the trap SampleEvery's doc comment
// warns about — this is the enforcement).
//
// The check is geometric, not behavioral: any power-of-two element
// size shares a factor with every even period, so those pairs are
// rejected with cclerr.ErrInvalidArg naming the offending regions.
// Odd periods are coprime with every power-of-two cycle and always
// pass, as does SampleEvery <= 1 (no thinning, nothing to alias).
// Call it after registering structures, before the measured phase.
func (p *Profiler) SamplePeriodJitterless() error {
	period := p.cfg.SampleEvery
	if period <= 1 || period%2 == 1 {
		return nil
	}
	var offenders []string
	p.Regions().EachFieldMap(func(label string, fm *layout.FieldMap) {
		if fm.Size > 0 && fm.Size&(fm.Size-1) == 0 {
			offenders = append(offenders, fmt.Sprintf("%s (%q, %d bytes)", label, fm.Struct, fm.Size))
		}
	})
	if len(offenders) == 0 {
		return nil
	}
	return cclerr.Errorf(cclerr.ErrInvalidArg,
		"profile: even sample period %d aliases with power-of-two element regions %s; use an odd (ideally prime) period",
		period, strings.Join(offenders, ", "))
}

// OnAccess implements cache.Observer.
func (p *Profiler) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	p.inner.OnAccess(addr, kind, hitLevel)
	p.accesses++

	// Epoch accounting sees every access: the series is exact, only
	// the field attribution is sampled.
	llMiss := hitLevel == -1
	var cls telemetry.MissClass
	e := &p.cur
	e.accesses++
	if hitLevel != 0 {
		e.l1Misses++
	}
	if llMiss {
		cls, _ = p.inner.LastLLMissClass()
		e.llMisses++
		e.classes[cls]++
		p.setScratch[(int64(addr)/p.llBlockSize)%p.llSets]++
	}
	if e.accesses >= p.epochLen {
		p.closeEpoch()
	}

	// Counter-decrement sampling fast path: unsampled accesses stop
	// here.
	p.countdown--
	if p.countdown > 0 {
		return
	}
	p.countdown = p.cfg.SampleEvery
	p.sampled++

	reg, off := p.Regions().Resolve(addr)
	sr := p.byRegion[reg]
	if sr == nil {
		sr = &structRec{reg: reg}
		if fm := reg.FieldMap(); fm != nil {
			sr.fields = make([]rec, len(fm.Fields))
		}
		p.byRegion[reg] = sr
		p.order = append(p.order, sr)
	}
	stall := p.stallEst[hitLevel+1]
	bucket := &sr.whole
	if fm := reg.FieldMap(); fm != nil && off >= 0 {
		if i := fieldIndex(fm.Fields, off%fm.Size); i >= 0 {
			bucket = &sr.fields[i]
		} else {
			bucket = &sr.padding
		}
	}
	bucket.add(hitLevel != 0, llMiss, cls, stall)
}

// OnEvict implements cache.Observer.
func (p *Profiler) OnEvict(level int, addr memsys.Addr, dirty bool) {
	p.inner.OnEvict(level, addr, dirty)
}

// OnFill implements cache.Observer.
func (p *Profiler) OnFill(level int, addr memsys.Addr, prefetch bool) {
	p.inner.OnFill(level, addr, prefetch)
}

// OnInvalidate implements cache.Observer.
func (p *Profiler) OnInvalidate(addr memsys.Addr, span int64) {
	p.inner.OnInvalidate(addr, span)
}

// CloseEpoch force-closes the open epoch window, recording it even if
// short — callers mark phase boundaries (e.g. before a Reorganize)
// with it so windows never straddle phases. A zero-access open epoch
// records nothing.
func (p *Profiler) CloseEpoch() {
	if p.cur.accesses == 0 {
		return
	}
	p.closeEpoch()
}

// closeEpoch seals p.cur into the series and merges the series when it
// would outgrow the cap.
func (p *Profiler) closeEpoch() {
	p.epochs = append(p.epochs, p.sealEpoch())
	p.cur = epochState{}
	for i := range p.setScratch {
		p.setScratch[i] = 0
	}
	if len(p.epochs) >= p.cfg.MaxEpochs {
		// Merge adjacent pairs and double the window: long runs keep
		// a bounded, uniform-resolution series.
		half := p.epochs[:0]
		for i := 0; i+1 < len(p.epochs); i += 2 {
			half = append(half, mergeEpochs(p.epochs[i], p.epochs[i+1]))
		}
		if len(p.epochs)%2 == 1 {
			half = append(half, p.epochs[len(p.epochs)-1])
		}
		p.epochs = half
		p.epochLen *= 2
	}
}

// sealEpoch summarizes the open epoch (without mutating it): the
// per-set scratch reduces to the hottest set and the touched-set
// count, the per-set pressure signals of the series.
func (p *Profiler) sealEpoch() Epoch {
	ep := Epoch{
		Accesses:   p.cur.accesses,
		L1Misses:   p.cur.l1Misses,
		LLMisses:   p.cur.llMisses,
		Compulsory: p.cur.classes[telemetry.Compulsory],
		Capacity:   p.cur.classes[telemetry.Capacity],
		Conflict:   p.cur.classes[telemetry.Conflict],
		Coherence:  p.cur.classes[telemetry.Coherence],
		HotSet:     -1,
	}
	for s, n := range p.setScratch {
		if n == 0 {
			continue
		}
		ep.SetsTouched++
		if n > ep.HotSetMisses {
			ep.HotSetMisses, ep.HotSet = n, int64(s)
		}
	}
	return ep
}

func mergeEpochs(a, b Epoch) Epoch {
	m := Epoch{
		Accesses:   a.Accesses + b.Accesses,
		L1Misses:   a.L1Misses + b.L1Misses,
		LLMisses:   a.LLMisses + b.LLMisses,
		Compulsory: a.Compulsory + b.Compulsory,
		Capacity:   a.Capacity + b.Capacity,
		Conflict:   a.Conflict + b.Conflict,
		Coherence:  a.Coherence + b.Coherence,
		HotSet:     a.HotSet,
		// Merged windows can only under-report: the hottest set of the
		// union is at least the hotter of the halves, and touched sets
		// at most the sum. Documented as lower/upper bounds.
		HotSetMisses: a.HotSetMisses,
		SetsTouched:  maxInt64(a.SetsTouched, b.SetsTouched),
	}
	if b.HotSetMisses > m.HotSetMisses {
		m.HotSetMisses, m.HotSet = b.HotSetMisses, b.HotSet
	}
	return m
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// fieldIndex returns the index of the field containing off (an offset
// within one element), or -1 for padding. It yields the index so the
// bucket lookup is array arithmetic on structRec.fields.
func fieldIndex(fields []layout.Field, off int64) int {
	for i, f := range fields {
		if off < f.Offset {
			break
		}
		if off < f.End() {
			return i
		}
	}
	return -1
}
