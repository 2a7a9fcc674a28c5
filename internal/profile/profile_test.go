package profile

import (
	"reflect"
	"strings"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// twoLevel is a small two-level hierarchy: enough geometry for the
// stall-estimate table and last-level set pressure to be non-trivial.
func twoLevel() cache.Config {
	return cache.Config{
		Levels: []cache.LevelConfig{
			{Name: "L1", Size: 256, Assoc: 1, BlockSize: 16, Latency: 1},
			{Name: "L2", Size: 1024, Assoc: 2, BlockSize: 32, Latency: 6, WriteBack: true},
		},
		MemLatency: 40,
	}
}

const (
	elemBase   = memsys.Addr(0x1000)
	elemSize   = 20
	elemStride = 24 // element plus a 4-byte allocator-header gap
	elemCount  = 64
)

func nodeFieldMap() layout.FieldMap {
	return layout.MustFieldMap("node", elemSize,
		layout.Field{Name: "key", Offset: 0, Size: 4},
		layout.Field{Name: "left", Offset: 4, Size: 4},
		layout.Field{Name: "right", Offset: 8, Size: 4},
		layout.Field{Name: "value", Offset: 12, Size: 8},
	)
}

// registerNodes registers elemCount stride-separated elements under
// "nodes" with the field map attached, mirroring how the tree apps
// register per-node ranges.
func registerNodes(p *Profiler) {
	for i := int64(0); i < elemCount; i++ {
		p.Regions().Register("nodes", elemBase.Add(i*elemStride), elemSize)
	}
	p.Regions().SetFieldMap("nodes", nodeFieldMap())
}

// walk replays a deterministic pseudo-random field-access pattern and
// returns total latency. Field selection is skewed: keys and left
// pointers dominate, values are rarely touched — a hot/cold split the
// ranking must recover.
func walk(h *cache.Hierarchy, n int) int64 {
	var total int64
	x := int64(1)
	for i := 0; i < n; i++ {
		x = (x*1103515245 + 12345) & 0x7fffffff
		elem := elemBase.Add((x % elemCount) * elemStride)
		var off int64
		switch {
		case i%8 == 7:
			off = 12 // value (cold)
		case i%2 == 0:
			off = 0 // key (hot)
		case i%4 == 1:
			off = 4 // left
		default:
			off = 8 // right
		}
		total += h.Access(elem.Add(off), 4, cache.Load)
	}
	return total
}

// TestProfilerDoesNotPerturbSimulation is the differential smoke the
// whole design rests on: attaching the profiler (at any sampling
// rate) must leave cycles and stats byte-identical to the unobserved
// run.
func TestProfilerDoesNotPerturbSimulation(t *testing.T) {
	base := cache.New(twoLevel())
	baseCycles := walk(base, 20000)
	baseStats := base.Stats()

	for _, every := range []int64{1, 7} {
		h := cache.New(twoLevel())
		p := Attach(h, Config{SampleEvery: every})
		registerNodes(p)
		cycles := walk(h, 20000)
		if cycles != baseCycles {
			t.Errorf("SampleEvery=%d: cycles %d, unobserved run %d", every, cycles, baseCycles)
		}
		if !reflect.DeepEqual(h.Stats(), baseStats) {
			t.Errorf("SampleEvery=%d: stats diverged from unobserved run", every)
		}
	}
}

// TestSamplingThinsOnlyFieldCounters: sampling must not touch the
// epoch series (which sees every access) — only the per-field counters
// thin, and proportionally.
func TestSamplingThinsOnlyFieldCounters(t *testing.T) {
	run := func(every int64) Report {
		h := cache.New(twoLevel())
		p := Attach(h, Config{SampleEvery: every, EpochLen: 1024})
		registerNodes(p)
		walk(h, 20000)
		return p.Report()
	}
	full, quarter := run(1), run(4)

	if !reflect.DeepEqual(full.Epochs, quarter.Epochs) {
		t.Error("epoch series changed with sampling rate; epochs must see every access")
	}
	if full.Sampled != full.Accesses {
		t.Errorf("SampleEvery=1 sampled %d of %d", full.Sampled, full.Accesses)
	}
	if want := full.Accesses / 4; quarter.Sampled != want {
		t.Errorf("SampleEvery=4 sampled %d, want %d", quarter.Sampled, want)
	}
	var fullN, quarterN int64
	for _, s := range full.Structs {
		for _, f := range s.Fields {
			fullN += f.Accesses
		}
	}
	for _, s := range quarter.Structs {
		for _, f := range s.Fields {
			quarterN += f.Accesses
		}
	}
	if fullN != full.Accesses {
		t.Errorf("full attribution covers %d of %d accesses", fullN, full.Accesses)
	}
	if quarterN != quarter.Sampled {
		t.Errorf("sampled attribution covers %d of %d samples", quarterN, quarter.Sampled)
	}
}

// TestFieldAttribution pins the resolution chain: address → region →
// element offset → field, including the padding gap and the implicit
// "(other)" bucket.
func TestFieldAttribution(t *testing.T) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{})
	registerNodes(p)

	h.Access(elemBase.Add(0), 4, cache.Load)               // node.key
	h.Access(elemBase.Add(elemStride+4), 4, cache.Load)    // node.left (elem 1)
	h.Access(elemBase.Add(2*elemStride+12), 4, cache.Load) // node.value (elem 2)
	h.Access(elemBase.Add(elemSize), 4, cache.Load)        // header gap: outside every range
	h.Access(0x9000, 4, cache.Load)                        // unregistered

	rep := p.Report()
	got := map[string]int64{}
	for _, s := range rep.Structs {
		for _, f := range s.Fields {
			got[s.Label+"."+f.Field] += f.Accesses
		}
	}
	want := map[string]int64{
		"nodes.key":     1,
		"nodes.left":    1,
		"nodes.right":   0,
		"nodes.value":   1,
		"(other).(all)": 2, // the gap byte and the unregistered address
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s = %d accesses, want %d (all: %v)", k, got[k], n, got)
		}
	}
}

// TestNoFieldMapRegion: a region registered without a field map still
// profiles, at whole-structure granularity.
func TestNoFieldMapRegion(t *testing.T) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{})
	p.Regions().Register("blob", 0x4000, 256)
	h.Access(0x4000, 4, cache.Load)
	h.Access(0x4080, 4, cache.Load)

	rep := p.Report()
	if len(rep.Structs) != 1 {
		t.Fatalf("structs = %+v, want one", rep.Structs)
	}
	s := rep.Structs[0]
	if s.Label != "blob" || s.Struct != "" {
		t.Fatalf("struct profile %+v", s)
	}
	if len(s.Fields) != 1 || s.Fields[0].Field != WholeStruct || s.Fields[0].Accesses != 2 {
		t.Fatalf("fields %+v, want one %q bucket with 2 accesses", s.Fields, WholeStruct)
	}
}

// TestPaddingBucket: an offset inside an element but between fields
// lands in "(padding)". The test map leaves [8, 12) unmapped.
func TestPaddingBucket(t *testing.T) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{})
	p.Regions().Register("gappy", 0x4000, 16)
	p.Regions().SetFieldMap("gappy", layout.MustFieldMap("gappy", 16,
		layout.Field{Name: "head", Offset: 0, Size: 8},
		layout.Field{Name: "tail", Offset: 12, Size: 4},
	))
	h.Access(0x4008, 4, cache.Load) // the gap

	rep := p.Report()
	var pad int64
	for _, f := range rep.Structs[0].Fields {
		if f.Field == Padding {
			pad = f.Accesses
		}
	}
	if pad != 1 {
		t.Fatalf("padding bucket saw %d accesses, want 1: %+v", pad, rep.Structs[0].Fields)
	}
}

// TestHotColdRanking: the skewed walk must rank key hottest and mark
// the rarely-missed value field cold.
func TestHotColdRanking(t *testing.T) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{})
	registerNodes(p)
	walk(h, 20000)

	rep := p.Report()
	var nodes *StructProfile
	for i := range rep.Structs {
		if rep.Structs[i].Label == "nodes" {
			nodes = &rep.Structs[i]
		}
	}
	if nodes == nil {
		t.Fatal("no nodes struct in report")
	}
	if nodes.Fields[0].LLMisses < nodes.Fields[len(nodes.Fields)-1].LLMisses {
		t.Error("fields not ranked by misses descending")
	}
	if !nodes.Fields[0].Hot {
		t.Error("hottest field not marked hot")
	}
	byName := map[string]FieldProfile{}
	for _, f := range nodes.Fields {
		byName[f.Field] = f
	}
	if key, val := byName["key"], byName["value"]; key.LLMisses <= val.LLMisses {
		t.Errorf("key (%d ll-misses) should out-miss value (%d) under the skewed walk",
			key.LLMisses, val.LLMisses)
	}
}

// TestResetMatchesFresh: Reset must make a used profiler's report
// equal a fresh one's (same registrations, no traffic) — the
// regression the satellite audit asks for.
func TestResetMatchesFresh(t *testing.T) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{SampleEvery: 3, EpochLen: 512})
	registerNodes(p)
	walk(h, 5000)
	p.Reset()

	fresh := New(twoLevel(), Config{SampleEvery: 3, EpochLen: 512})
	registerNodes(fresh)

	if got, want := p.Report(), fresh.Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("report after Reset differs from fresh profiler:\ngot  %+v\nwant %+v", got, want)
	}
	if got, want := p.Collector().Report(), fresh.Collector().Report(); !reflect.DeepEqual(got, want) {
		t.Errorf("collector report after Reset differs from fresh collector:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestEpochMergeBoundsSeries: a run far longer than MaxEpochs*EpochLen
// must keep the series under the cap by doubling the window, without
// losing any accesses.
func TestEpochMergeBoundsSeries(t *testing.T) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{EpochLen: 64, MaxEpochs: 8})
	const n = 64 * 100 // 100 initial windows >> cap of 8
	walk(h, n)

	rep := p.Report()
	if len(rep.Epochs) > 8 {
		t.Fatalf("%d epochs, cap is 8", len(rep.Epochs))
	}
	if rep.EpochLen <= 64 {
		t.Errorf("epoch length %d never doubled", rep.EpochLen)
	}
	var sum int64
	for _, e := range rep.Epochs {
		sum += e.Accesses
	}
	if sum != n {
		t.Errorf("epochs account for %d accesses, want %d", sum, n)
	}
}

// TestCloseEpoch: an explicit phase boundary seals a partial window;
// with nothing accumulated it records nothing.
func TestCloseEpoch(t *testing.T) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{EpochLen: 1 << 20})
	p.CloseEpoch()
	if got := len(p.Report().Epochs); got != 0 {
		t.Fatalf("empty CloseEpoch recorded %d epochs", got)
	}
	walk(h, 100)
	p.CloseEpoch()
	rep := p.Report()
	if len(rep.Epochs) != 1 || rep.Epochs[0].Accesses != 100 {
		t.Fatalf("epochs = %+v, want one with 100 accesses", rep.Epochs)
	}
}

// TestSteadyStateAllocs: once every region has been sampled and every
// block touched, the observer path must allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{SampleEvery: 2, EpochLen: 256, MaxEpochs: 8})
	registerNodes(p)
	walk(h, 4096) // warm: regions sampled, shadow blocks seen, epochs at cap

	if avg := testing.AllocsPerRun(50, func() { walk(h, 512) }); avg != 0 {
		t.Errorf("steady-state walk allocates %.1f times per run, want 0", avg)
	}
}

// TestRenderEdges exercises the report renderers on empty and
// degenerate inputs — no structs, no epochs, a zero-access epoch.
func TestRenderEdges(t *testing.T) {
	empty := Report{Schema: Schema, SampleEvery: 1}
	if s := empty.RenderTable(); !strings.Contains(s, "no regions sampled") {
		t.Errorf("empty table render: %q", s)
	}
	if s := empty.RenderSeries(); !strings.Contains(s, "0 epochs") {
		t.Errorf("empty series render: %q", s)
	}
	zero := Epoch{}
	if zero.MissRate() != 0 {
		t.Error("zero-access epoch must have miss rate 0")
	}
	one := Report{Epochs: []Epoch{zero, {Accesses: 10, LLMisses: 5}}}
	if s := one.RenderSeries(); !strings.Contains(s, "2 epochs") {
		t.Errorf("series render with zero-access epoch: %q", s)
	}
	if s := sparkline([]float64{0, 0, 0}); s != "   " {
		t.Errorf("all-zero sparkline = %q, want blanks", s)
	}
}

// TestConfigDefaults pins the zero-value behavior.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SampleEvery != 1 || c.EpochLen != DefaultEpochLen || c.MaxEpochs != DefaultMaxEpochs {
		t.Errorf("defaults = %+v", c)
	}
}

// TestTopologyCoreCoherenceMiss: a profiler on a topology core sees
// its private cache's invalidations, so a reload after a remote store
// to the same granule counts exactly one coherence miss, both in the
// epoch series and in the wrapped collector.
func TestTopologyCoreCoherenceMiss(t *testing.T) {
	tp := machine.NewTopology(machine.DefaultTopologyConfig(2))
	p := Attach(tp.PrivateCache(0), Config{})
	tp.Arena.AlignBrk(64)
	a := tp.Arena.Sbrk(64)
	tp.Core(0).StoreInt(a, 1)
	tp.Core(1).StoreInt(a.Add(8), 2)
	tp.Core(0).LoadInt(a)

	var coh int64
	for _, e := range p.Report().Epochs {
		coh += e.Coherence
	}
	if coh != 1 {
		t.Fatalf("epoch series coherence misses = %d, want 1", coh)
	}
	if _, _, _, c := p.Collector().Misses(0); c != 1 {
		t.Fatalf("collector L1 coherence misses = %d, want 1", c)
	}
}
