package telemetry

import (
	"fmt"
	"sort"

	"ccl/internal/layout"
	"ccl/internal/memsys"
)

// Region is one labeled address range plus the miss traffic charged
// to it. A label may be registered several times (a structure's
// extents need not be contiguous); all of its ranges share one
// counter record.
type Region struct {
	label         string
	ranges        []memsys.AddrRange
	bytes         int64
	accesses      int64
	misses        []int64           // per cache level
	classes       [NumClasses]int64 // 4C classes at the last level
	invalidations int64             // granules lost to remote stores
	fields        *layout.FieldMap  // nil: no field-level attribution
}

// Label returns the region's name.
func (r *Region) Label() string { return r.label }

// Bytes returns the total registered size.
func (r *Region) Bytes() int64 { return r.bytes }

// FieldMap returns the region's structure layout, or nil when none
// was attached. Regions without a field map still attribute misses at
// whole-structure granularity.
func (r *Region) FieldMap() *layout.FieldMap { return r.fields }

// OtherLabel is the implicit bucket charged with traffic to addresses
// no registered region covers (allocator metadata, globals, scratch).
const OtherLabel = "(other)"

// RegionMap attributes memory traffic to labeled address ranges: the
// "misses by structure" view. Experiments register each structure's
// extents right after building it; every demand access is then
// charged, via binary search over the sorted ranges, to the structure
// that caused it.
type RegionMap struct {
	levels  int
	sorted  []entry // by Start, non-overlapping
	byLabel map[string]*Region
	order   []*Region // registration order, for stable reports
	other   *Region
	// last is the range find returned most recently. Ranges never
	// overlap and are never removed, so an address it contains
	// belongs to it exactly, and consecutive accesses mostly fall in
	// the same structure.
	last entry
}

type entry struct {
	r   memsys.AddrRange
	reg *Region
}

// NewRegionMap returns an empty map for a hierarchy with the given
// number of cache levels.
func NewRegionMap(levels int) *RegionMap {
	m := &RegionMap{levels: levels, byLabel: map[string]*Region{}}
	m.other = m.region(OtherLabel)
	return m
}

func (m *RegionMap) region(label string) *Region {
	if r, ok := m.byLabel[label]; ok {
		return r
	}
	r := &Region{label: label, misses: make([]int64, m.levels)}
	m.byLabel[label] = r
	m.order = append(m.order, r)
	return r
}

// Register adds the range [start, start+size) under label. Ranges
// must not overlap an existing registration: a byte belongs to one
// structure, and an overlap is a bookkeeping bug worth failing loudly
// on. Registering more ranges under an existing label extends that
// region.
func (m *RegionMap) Register(label string, start memsys.Addr, size int64) {
	if size <= 0 {
		panic(fmt.Sprintf("telemetry: Register(%q, %v, %d): size must be positive", label, start, size))
	}
	m.RegisterRange(label, memsys.AddrRange{Start: start, End: start.Add(size)})
}

// RegisterRange is Register for a pre-built AddrRange.
func (m *RegionMap) RegisterRange(label string, rng memsys.AddrRange) {
	if rng.Len() <= 0 {
		panic(fmt.Sprintf("telemetry: RegisterRange(%q, %v): empty range", label, rng))
	}
	i := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i].r.Start >= rng.Start })
	if i > 0 && m.sorted[i-1].r.End > rng.Start {
		panic(fmt.Sprintf("telemetry: range %v for %q overlaps %v (%q)",
			rng, label, m.sorted[i-1].r, m.sorted[i-1].reg.label))
	}
	if i < len(m.sorted) && rng.End > m.sorted[i].r.Start {
		panic(fmt.Sprintf("telemetry: range %v for %q overlaps %v (%q)",
			rng, label, m.sorted[i].r, m.sorted[i].reg.label))
	}
	reg := m.region(label)
	reg.ranges = append(reg.ranges, rng)
	reg.bytes += rng.Len()
	m.sorted = append(m.sorted, entry{})
	copy(m.sorted[i+1:], m.sorted[i:])
	m.sorted[i] = entry{r: rng, reg: reg}
}

// RegisterElems registers one size-byte range per address under
// label: the per-element registration pattern field-level profiling
// wants (every range starts on an element boundary even though
// allocator headers sit between elements). addrs is sorted in place
// first — ascending insertion appends at the tail of the sorted slice,
// so n elements cost one O(n log n) sort instead of O(n²) memmove.
func (m *RegionMap) RegisterElems(label string, addrs []memsys.Addr, size int64) {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		m.Register(label, a, size)
	}
}

// SetFieldMap attaches a structure layout to the labeled region
// (creating the region if the label is new), enabling field-level
// attribution for sampled misses inside it. Every range registered
// under the label must start on an element boundary — per-element
// registration (one range per node, as trees.BST.RegisterNodes does)
// satisfies this trivially; a single whole-heap range generally does
// not, because allocator headers break the stride.
func (m *RegionMap) SetFieldMap(label string, fm layout.FieldMap) {
	r := m.region(label)
	r.fields = &fm
}

// EachFieldMap yields every region that carries a field map, in
// registration order — the hook validators (like the profiler's
// sample-period aliasing check) use to inspect what element
// geometries a workload registered.
func (m *RegionMap) EachFieldMap(f func(label string, fm *layout.FieldMap)) {
	for _, r := range m.order {
		if r.fields != nil {
			f(r.label, r.fields)
		}
	}
}

// find returns the region charged for addr: the registered range
// containing it, or the implicit "(other)" bucket.
func (m *RegionMap) find(addr memsys.Addr) *Region {
	if m.last.r.Contains(addr) {
		return m.last.reg
	}
	i := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i].r.End > addr })
	if i < len(m.sorted) && m.sorted[i].r.Contains(addr) {
		m.last = m.sorted[i]
		return m.last.reg
	}
	return m.other
}

// Resolve returns the region containing addr together with addr's
// offset from the start of the containing registered range, the
// quantity a field map reduces to a member offset. Unregistered
// addresses resolve to the implicit "(other)" bucket with offset -1.
// The profiler's sampled path is the intended caller; the lookup is
// one binary search over the sorted ranges.
func (m *RegionMap) Resolve(addr memsys.Addr) (*Region, int64) {
	i := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i].r.End > addr })
	if i < len(m.sorted) && m.sorted[i].r.Contains(addr) {
		return m.sorted[i].reg, int64(addr) - int64(m.sorted[i].r.Start)
	}
	return m.other, -1
}

// reset zeroes every region's counters, keeping registrations.
func (m *RegionMap) reset() {
	for _, r := range m.order {
		r.accesses = 0
		for i := range r.misses {
			r.misses[i] = 0
		}
		r.classes = [NumClasses]int64{}
		r.invalidations = 0
	}
}
