package telemetry

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/layout"
	"ccl/internal/memsys"
)

// directMapped is a single-level direct-mapped cache: 4 sets of 16 B
// (64 B total). Two blocks one period (64 B) apart ping-pong in a set
// even though the cache is 75% empty — the textbook conflict miss.
func directMapped() cache.Config {
	return cache.Config{
		Levels:     []cache.LevelConfig{{Name: "L1", Size: 64, Assoc: 1, BlockSize: 16, Latency: 1}},
		MemLatency: 10,
	}
}

// fullyAssoc is the same capacity and block size with full
// associativity (one set of 4 ways): by the 3C definition it has no
// conflict misses at all.
func fullyAssoc() cache.Config {
	return cache.Config{
		Levels:     []cache.LevelConfig{{Name: "L1", Size: 64, Assoc: 4, BlockSize: 16, Latency: 1}},
		MemLatency: 10,
	}
}

func TestPingPongIsConflict(t *testing.T) {
	h := cache.New(directMapped())
	col := Attach(h)
	a := memsys.Addr(0x1000)
	b := a.Add(64) // same set, direct-mapped
	rounds := 8
	for i := 0; i < rounds; i++ {
		h.Access(a, 8, cache.Load)
		h.Access(b, 8, cache.Load)
	}
	comp, cap, conf, _ := col.Misses(0)
	if comp != 2 {
		t.Errorf("compulsory = %d, want 2 (first touch of each block)", comp)
	}
	if cap != 0 {
		t.Errorf("capacity = %d, want 0 (working set is 2 of 4 blocks)", cap)
	}
	// Every re-access misses in the real cache but hits the shadow
	// fully-associative cache: all conflict.
	if want := int64(2*rounds - 2); conf != want {
		t.Errorf("conflict = %d, want %d", conf, want)
	}
}

func TestFullyAssociativeHasNoConflictMisses(t *testing.T) {
	h := cache.New(fullyAssoc())
	col := Attach(h)
	// A working set larger than the cache, walked repeatedly: plenty
	// of misses, none of them classifiable as conflict.
	for round := 0; round < 4; round++ {
		for i := int64(0); i < 8; i++ { // 8 blocks > 4 ways
			h.Access(memsys.Addr(0x1000+i*16), 8, cache.Load)
		}
	}
	comp, cap, conf, _ := col.Misses(0)
	if conf != 0 {
		t.Fatalf("fully-associative cache reported %d conflict misses", conf)
	}
	if comp != 8 {
		t.Errorf("compulsory = %d, want 8", comp)
	}
	if cap == 0 {
		t.Error("expected capacity misses from the oversized working set")
	}
	st := h.Stats().Levels[0]
	if got := comp + cap + conf; got != st.Misses {
		t.Errorf("classes sum to %d, cache counted %d misses", got, st.Misses)
	}
}

func TestClassesSumToMisses(t *testing.T) {
	h := cache.New(cache.ScaledHierarchy(64))
	col := Attach(h)
	// A mixed pseudo-random walk.
	x := int64(1)
	for i := 0; i < 20000; i++ {
		x = (x*1103515245 + 12345) % (1 << 18)
		kind := cache.Load
		if i%7 == 0 {
			kind = cache.Store
		}
		h.Access(memsys.Addr(0x1000+x), 4, kind)
	}
	st := h.Stats()
	for i := range st.Levels {
		comp, cap, conf, _ := col.Misses(i)
		if got := comp + cap + conf; got != st.Levels[i].Misses {
			t.Errorf("level %d: classes sum to %d, cache counted %d", i, got, st.Levels[i].Misses)
		}
	}
}

func TestRegionAttribution(t *testing.T) {
	h := cache.New(directMapped())
	col := Attach(h)
	col.Regions().Register("hot", 0x1000, 64)
	col.Regions().Register("cold", 0x2000, 64)
	h.Access(0x1000, 8, cache.Load) // hot: compulsory miss
	h.Access(0x1000, 8, cache.Load) // hot: hit
	h.Access(0x2000, 8, cache.Load) // cold: compulsory miss
	h.Access(0x9000, 8, cache.Load) // unregistered

	rep := col.Report()
	byLabel := map[string]RegionReport{}
	for _, r := range rep.Regions {
		byLabel[r.Label] = r
	}
	hot, cold, other := byLabel["hot"], byLabel["cold"], byLabel[OtherLabel]
	if hot.Accesses != 2 || hot.MissesByLevel[0] != 1 {
		t.Errorf("hot = %+v, want 2 accesses / 1 miss", hot)
	}
	if cold.Accesses != 1 || cold.MissesByLevel[0] != 1 {
		t.Errorf("cold = %+v, want 1 access / 1 miss", cold)
	}
	if other.Accesses != 1 {
		t.Errorf("(other) = %+v, want 1 access", other)
	}
	if hot.Compulsory != 1 || hot.Conflict != 0 {
		t.Errorf("hot classes = %d/%d/%d, want 1/0/0", hot.Compulsory, hot.Capacity, hot.Conflict)
	}
}

func TestRegionOverlapPanics(t *testing.T) {
	m := NewRegionMap(1)
	m.Register("a", 0x1000, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping Register did not panic")
		}
	}()
	m.Register("b", 0x1020, 64)
}

func TestRegionMultiRange(t *testing.T) {
	m := NewRegionMap(2)
	m.Register("seg", 0x1000, 64)
	m.Register("seg", 0x3000, 64)
	if got := m.find(0x1010).Label(); got != "seg" {
		t.Errorf("find(0x1010) = %q", got)
	}
	if got := m.find(0x3010).Label(); got != "seg" {
		t.Errorf("find(0x3010) = %q", got)
	}
	if got := m.find(0x2000).Label(); got != OtherLabel {
		t.Errorf("find(0x2000) = %q, want %q", got, OtherLabel)
	}
	if got := m.region("seg").Bytes(); got != 128 {
		t.Errorf("seg bytes = %d, want 128", got)
	}
}

// TestRegionRegistrationEdges covers the registration calls no other
// telemetry test reaches: empty ranges panic like overlaps, and
// EachFieldMap yields only the regions carrying a field map, in
// registration order.
func TestRegionRegistrationEdges(t *testing.T) {
	m := NewRegionMap(1)
	for name, f := range map[string]func(){
		"Register size 0":     func() { m.Register("z", 0x100, 0) },
		"RegisterRange empty": func() { m.RegisterRange("z", memsys.AddrRange{Start: 0x100, End: 0x100}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	fm := layout.MustFieldMap("node", 16, layout.Field{Name: "k", Offset: 0, Size: 8})
	m.Register("plain", 0x1000, 64)
	m.SetFieldMap("second", fm)
	m.SetFieldMap("first", fm)
	var got []string
	m.EachFieldMap(func(label string, f *layout.FieldMap) {
		if f.Struct != "node" {
			t.Errorf("%s: field map %q", label, f.Struct)
		}
		got = append(got, label)
	})
	if want := []string{"second", "first"}; !reflect.DeepEqual(got, want) {
		t.Errorf("EachFieldMap yielded %v, want %v", got, want)
	}
}

func TestHeatmapCountsAndRender(t *testing.T) {
	h := cache.New(directMapped())
	col := Attach(h)
	a := memsys.Addr(0x1000) // set 0 of 4
	b := a.Add(64)           // also set 0
	h.Access(a, 8, cache.Load)
	h.Access(b, 8, cache.Load) // evicts a: conflict pressure on set 0
	h.Access(a, 8, cache.Load)

	rep := col.Report()
	hm := rep.Heatmap
	if hm.Sets != 4 {
		t.Fatalf("heatmap sets = %d, want 4", hm.Sets)
	}
	if hm.Accesses[0] != 3 || hm.Misses[0] != 3 {
		t.Errorf("set 0 = %d accesses / %d misses, want 3/3", hm.Accesses[0], hm.Misses[0])
	}
	if hm.Conflicts[0] != 1 {
		t.Errorf("set 0 conflicts = %d, want 1 (the a re-fetch)", hm.Conflicts[0])
	}
	if hm.Evictions[0] != 2 {
		t.Errorf("set 0 evictions = %d, want 2", hm.Evictions[0])
	}
	for s := 1; s < 4; s++ {
		if hm.Accesses[s] != 0 {
			t.Errorf("idle set %d saw %d accesses", s, hm.Accesses[s])
		}
	}

	art := hm.RenderASCII(4)
	if !strings.Contains(art, "accesses") || !strings.Contains(art, "conflicts") {
		t.Errorf("RenderASCII missing counter rows:\n%s", art)
	}
	if !strings.Contains(art, "peak 3") {
		t.Errorf("RenderASCII missing peak annotation:\n%s", art)
	}
}

// heatTally forwards every event to a Collector and tallies the last
// level's per-set counters itself: the set by division, misses and
// conflicts by the reference classifier's verdict.
type heatTally struct {
	col                                    *Collector
	ref                                    *refClassifier
	last                                   int
	blockSize, sets                        int64
	accesses, misses, conflicts, evictions []int64
}

func newHeatTally(cfg cache.Config) *heatTally {
	ll := cfg.Levels[len(cfg.Levels)-1]
	sets := ll.Sets()
	return &heatTally{
		col: NewCollector(cfg), ref: newRefClassifier(cfg),
		last: len(cfg.Levels) - 1, blockSize: ll.BlockSize, sets: sets,
		accesses: make([]int64, sets), misses: make([]int64, sets),
		conflicts: make([]int64, sets), evictions: make([]int64, sets),
	}
}

func (t *heatTally) set(addr memsys.Addr) int64 { return int64(addr) / t.blockSize % t.sets }

func (t *heatTally) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	t.col.OnAccess(addr, kind, hitLevel)
	t.ref.onAccess(addr, hitLevel)
	if hitLevel != -1 && hitLevel < t.last {
		return
	}
	s := t.set(addr)
	t.accesses[s]++
	if t.ref.lastLL {
		t.misses[s]++
		if t.ref.lastCls == Conflict {
			t.conflicts[s]++
		}
	}
}

func (t *heatTally) OnEvict(level int, addr memsys.Addr, dirty bool) {
	t.col.OnEvict(level, addr, dirty)
	if level == t.last {
		t.evictions[t.set(addr)]++
	}
}

func (t *heatTally) OnFill(level int, addr memsys.Addr, prefetch bool) {
	t.col.OnFill(level, addr, prefetch)
}

func (t *heatTally) OnInvalidate(addr memsys.Addr, span int64) { t.col.OnInvalidate(addr, span) }

// TestHeatmapMatchesTally holds the collector's last-level per-set
// counters to a naive tally on two geometries: a last level of 3 sets,
// where the set index must divide, and one of 8, where it masks.
func TestHeatmapMatchesTally(t *testing.T) {
	l1 := cache.LevelConfig{Name: "L1", Size: 128, Assoc: 2, BlockSize: 16, Latency: 1}
	for _, sets := range []int64{3, 8} {
		cfg := cache.Config{
			Levels: []cache.LevelConfig{l1,
				{Name: "L2", Size: sets * 2 * 32, Assoc: 2, BlockSize: 32, Latency: 4, WriteBack: true}},
			MemLatency: 20,
		}
		h := cache.New(cfg)
		tally := newHeatTally(cfg)
		h.SetObserver(tally)
		rng := rand.New(rand.NewSource(sets))
		for i := 0; i < 20_000; i++ {
			kind := cache.Load
			if rng.Intn(3) == 0 {
				kind = cache.Store
			}
			h.Access(memsys.Addr(rng.Intn(4096)), int64(1+rng.Intn(16)), kind)
		}
		hm := tally.col.Report().Heatmap
		if hm.Sets != sets {
			t.Fatalf("%d sets: heatmap has %d", sets, hm.Sets)
		}
		for _, c := range []struct {
			name      string
			got, want []int64
		}{
			{"accesses", hm.Accesses, tally.accesses},
			{"misses", hm.Misses, tally.misses},
			{"conflicts", hm.Conflicts, tally.conflicts},
			{"evictions", hm.Evictions, tally.evictions},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%d sets: %s per set %v, tally %v", sets, c.name, c.got, c.want)
			}
		}
		if tally.conflicts[0]+tally.conflicts[1]+tally.conflicts[2] == 0 {
			t.Errorf("%d sets: the stream made no last-level conflict misses to compare", sets)
		}
	}
}

func TestCollectorReset(t *testing.T) {
	h := cache.New(directMapped())
	col := Attach(h)
	col.Regions().Register("r", 0x1000, 64)
	h.Access(0x1000, 8, cache.Load)
	col.Reset()
	rep := col.Report()
	if rep.Levels[0].Accesses != 0 || rep.Levels[0].Misses != 0 {
		t.Fatal("Reset did not zero level counters")
	}
	// Shadow state survives reset (mirrors Hierarchy.ResetStats): the
	// block is no longer compulsory but the cache still holds it, so a
	// re-access is a plain hit with zero misses.
	h.Access(0x1000, 8, cache.Load)
	comp, _, _, _ := col.Misses(0)
	if comp != 0 {
		t.Errorf("block re-counted as compulsory after Reset: %d", comp)
	}
	// Region registrations survive too.
	rep = col.Report()
	if len(rep.Regions) == 0 || rep.Regions[0].Label != "r" {
		t.Fatal("Reset dropped region registrations")
	}
}

func TestPrefetchFillsExcludedFrom3C(t *testing.T) {
	h := cache.New(directMapped())
	col := Attach(h)
	h.Prefetch(0x1000)
	h.Tick(100)
	rep := col.Report()
	if rep.Levels[0].PrefetchFills != 1 {
		t.Errorf("prefetch fills = %d, want 1", rep.Levels[0].PrefetchFills)
	}
	comp, cap, conf, _ := col.Misses(0)
	if comp+cap+conf != 0 {
		t.Errorf("prefetch classified as a demand miss: %d/%d/%d", comp, cap, conf)
	}
}

func TestMissClassString(t *testing.T) {
	if Compulsory.String() != "compulsory" || Capacity.String() != "capacity" || Conflict.String() != "conflict" {
		t.Error("MissClass.String broken")
	}
}

// TestResetReportMatchesFresh is the snapshot-side regression for the
// profiler seam (DESIGN.md §10): after traffic and a Reset, everything
// a snapshot exposes — level counters, heatmap rows, region
// attribution — must be byte-equal to a fresh collector carrying the
// same registrations and field maps, and the per-access
// LastLLMissClass seam must read as "no miss yet". Only shadow-LRU
// history may differ, by design (it mirrors Hierarchy.ResetStats so
// compulsory misses are not double-counted).
func TestResetReportMatchesFresh(t *testing.T) {
	fm := layout.MustFieldMap("node", 16, layout.Field{Name: "k", Offset: 0, Size: 8})
	build := func() (*cache.Hierarchy, *Collector) {
		h := cache.New(directMapped())
		col := Attach(h)
		col.Regions().Register("r", 0x1000, 64)
		col.Regions().SetFieldMap("r", fm)
		return h, col
	}

	h, col := build()
	for i := int64(0); i < 32; i++ {
		h.Access(memsys.Addr(0x1000+16*(i%8)), 8, cache.Load)
	}
	if _, ok := col.LastLLMissClass(); !ok {
		t.Fatal("LastLLMissClass saw no miss during warmup traffic")
	}
	col.Reset()

	if _, ok := col.LastLLMissClass(); ok {
		t.Error("LastLLMissClass still set after Reset")
	}
	_, fresh := build()
	if got, want := col.Report(), fresh.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("Reset collector's report differs from fresh:\n got %+v\nwant %+v", got, want)
	}
	// Registrations and field maps survive Reset, so attribution picks
	// up immediately on the next access.
	r, off := col.Regions().Resolve(0x1008)
	if r.Label() != "r" || off != 8 || r.FieldMap() == nil || r.FieldMap().Struct != "node" {
		t.Errorf("Resolve after Reset = (%q, %d, fm=%+v)", r.Label(), off, r.FieldMap())
	}
}

// TestRenderEdges pins the heatmap renderer's boundary behavior: a
// zero-value heatmap (no sets, no traffic), more columns than sets,
// non-positive column counts, and bucketed rows where sets don't
// divide evenly into columns.
func TestRenderEdges(t *testing.T) {
	// Empty heatmap: no rows to bucket, no division by zero.
	empty := Heatmap{Level: "L1"}
	art := empty.RenderASCII(8)
	if !strings.Contains(art, "peak 0") {
		t.Errorf("empty heatmap render lost its peak annotation:\n%s", art)
	}

	// cols > sets collapses to one column per set.
	line, max := renderRow([]int64{5, 0}, 64)
	if line != "@ " || max != 5 {
		t.Errorf("renderRow wide = (%q, %d), want (\"@ \", 5)", line, max)
	}

	// Uneven bucketing: 3 sets into 2 columns puts 2 sets in bucket 0.
	line, max = renderRow([]int64{1, 1, 4}, 2)
	if len(line) != 2 || max != 4 {
		t.Errorf("renderRow uneven = (%q, %d), want 2 cols, peak 4", line, max)
	}
	if line[1] != '@' {
		t.Errorf("hottest bucket not at full ramp: %q", line)
	}

	// All-zero traffic renders blanks, not a divide-by-zero.
	line, max = renderRow([]int64{0, 0, 0, 0}, 4)
	if line != "    " || max != 0 {
		t.Errorf("renderRow zeros = (%q, %d)", line, max)
	}

	// cols <= 0 falls back to the default width instead of panicking.
	hm := Heatmap{Level: "L1", Sets: 4, Accesses: []int64{1, 2, 3, 4},
		Misses: make([]int64, 4), Conflicts: make([]int64, 4), Evictions: make([]int64, 4)}
	if art := hm.RenderASCII(0); !strings.Contains(art, "4 cols") {
		t.Errorf("RenderASCII(0) did not clamp to the set count:\n%s", art)
	}
}
