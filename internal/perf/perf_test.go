package perf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: ccl/internal/cache
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAccessL1Hit-8     	  200000	        11.70 ns/op	       0 B/op	       0 allocs/op
BenchmarkTraceReplay 	      20	   2992919 ns/op	     50000 records/op	    3096 B/op	       6 allocs/op
BenchmarkNoMem-8   	 1000000	         5.00 ns/op
PASS
ok  	ccl/internal/cache	0.053s
`

func TestParseBench(t *testing.T) {
	entries, err := ParseBench("ccl/internal/cache", sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	e := entries[0]
	if e.Name != "BenchmarkAccessL1Hit" || e.Iterations != 200000 || e.NsPerOp != 11.7 ||
		e.BytesPerOp != 0 || e.AllocsPerOp != 0 {
		t.Fatalf("entry 0 parsed wrong: %+v", e)
	}
	// Custom metrics (records/op) must not be mistaken for B/op.
	r := entries[1]
	if r.Name != "BenchmarkTraceReplay" || r.BytesPerOp != 3096 || r.AllocsPerOp != 6 {
		t.Fatalf("entry 1 parsed wrong: %+v", r)
	}
	// A line without -benchmem columns still parses.
	n := entries[2]
	if n.Name != "BenchmarkNoMem" || n.NsPerOp != 5.0 || n.BytesPerOp != 0 {
		t.Fatalf("entry 2 parsed wrong: %+v", n)
	}
}

func TestReportRoundTrip(t *testing.T) {
	entries, err := ParseBench("p", sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(entries)
	enc, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Schema != Schema || len(dec.Bench) != len(rep.Bench) {
		t.Fatalf("round trip lost data: %+v", dec)
	}
	if _, err := DecodeReport([]byte(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("DecodeReport accepted a wrong schema")
	}
}

func TestCompareGates(t *testing.T) {
	base := NewReport([]Entry{
		{Name: "BenchmarkA", Package: "p", NsPerOp: 100, AllocsPerOp: 0, BytesPerOp: 0},
		{Name: "BenchmarkB", Package: "p", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64},
		{Name: "BenchmarkC", Package: "p", NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 4096},
	})
	okC := Entry{Name: "BenchmarkC", Package: "p", NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 4096}
	cases := []struct {
		name string
		got  []Entry
		want int // violation count
	}{
		{"identical", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 100},
			{Name: "BenchmarkB", Package: "p", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64},
			okC,
		}, 0},
		{"within tolerance", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 140},
			{Name: "BenchmarkB", Package: "p", NsPerOp: 60, AllocsPerOp: 3, BytesPerOp: 10},
			okC,
		}, 0},
		{"time regression", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 151},
			{Name: "BenchmarkB", Package: "p", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64},
			okC,
		}, 1},
		{"new allocation on a zero baseline is never tolerated", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 100, AllocsPerOp: 1, BytesPerOp: 8},
			{Name: "BenchmarkB", Package: "p", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64},
			okC,
		}, 1},
		{"macro alloc jitter within one percent", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 100},
			{Name: "BenchmarkB", Package: "p", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64},
			{Name: "BenchmarkC", Package: "p", NsPerOp: 100, AllocsPerOp: 1009, BytesPerOp: 4200},
		}, 0},
		{"macro alloc growth past one percent", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 100},
			{Name: "BenchmarkB", Package: "p", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64},
			{Name: "BenchmarkC", Package: "p", NsPerOp: 100, AllocsPerOp: 1011, BytesPerOp: 4096},
		}, 1},
		{"byte growth past the slack", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 100, BytesPerOp: 100},
			{Name: "BenchmarkB", Package: "p", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64},
			okC,
		}, 1},
		{"missing benchmark", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 100},
			okC,
		}, 1},
		{"extra benchmark is fine", []Entry{
			{Name: "BenchmarkA", Package: "p", NsPerOp: 100},
			{Name: "BenchmarkB", Package: "p", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 64},
			okC,
			{Name: "BenchmarkD", Package: "p", NsPerOp: 9999, AllocsPerOp: 99},
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := Compare(NewReport(tc.got), base, 0.5)
			if len(vs) != tc.want {
				t.Fatalf("Compare found %d violations, want %d: %v", len(vs), tc.want, vs)
			}
		})
	}
}

// TestCheckedInBaseline validates the repository's BENCH_sim.json: it
// must be schema-valid, allocation-free on the demand path, show the
// >=2x hot-path improvement over the recorded pre-optimization
// reference, keep Fig10 within 1% of its pre-flat-snapshot
// allocations, and hold the TLB and the collector to their rung
// ratios.
func TestCheckedInBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatalf("reading checked-in baseline: %v", err)
	}
	rep, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	find := func(key string) Entry {
		for _, e := range rep.Bench {
			if e.Key() == key {
				return e
			}
		}
		t.Fatalf("baseline is missing %s", key)
		return Entry{}
	}
	hot := find("ccl.BenchmarkCacheAccess")
	if hot.AllocsPerOp != 0 || hot.BytesPerOp != 0 {
		t.Fatalf("BenchmarkCacheAccess baseline allocates: %+v", hot)
	}
	ref, ok := rep.Reference["ccl.BenchmarkCacheAccess.pre-optimization"]
	if !ok {
		t.Fatal("baseline lost the pre-optimization reference for BenchmarkCacheAccess")
	}
	if hot.NsPerOp*2 > ref.NsPerOp {
		t.Fatalf("hot path no longer 2x the pre-optimization simulator: %.2f vs %.2f ns/op",
			hot.NsPerOp, ref.NsPerOp)
	}
	replay := find("ccl/internal/oracle.BenchmarkTraceReplay")
	refReplay, ok := rep.Reference["ccl/internal/oracle.BenchmarkTraceReplay.pre-optimization"]
	if !ok {
		t.Fatal("baseline lost the pre-optimization reference for BenchmarkTraceReplay")
	}
	if replay.NsPerOp*2 > refReplay.NsPerOp {
		t.Fatalf("trace replay no longer 2x the pre-optimization simulator: %.0f vs %.0f ns/op",
			replay.NsPerOp, refReplay.NsPerOp)
	}
	// The chunked arena and flat snapshots took Fig10 from ~1.2M
	// allocations per run to a few thousand; a regression back to
	// per-node snapshot records would pass the one-sided alloc gate,
	// so the baseline itself is held to 1% of the recorded reference.
	fig10 := find("ccl.BenchmarkFig10ModelValidation")
	refFig10, ok := rep.Reference["ccl.BenchmarkFig10ModelValidation.pre-flat-snapshot"]
	if !ok {
		t.Fatal("baseline lost the pre-flat-snapshot reference for BenchmarkFig10ModelValidation")
	}
	if fig10.AllocsPerOp*100 > refFig10.AllocsPerOp {
		t.Fatalf("Fig10 makes %d allocs/op, more than 1%% of the pre-flat-snapshot %d",
			fig10.AllocsPerOp, refFig10.AllocsPerOp)
	}
	if _, ok := rep.Reference["ccl.BenchmarkCCMorphReorganize.pre-flat-snapshot"]; !ok {
		t.Fatal("baseline lost the pre-flat-snapshot reference for BenchmarkCCMorphReorganize")
	}
	// Every microbenchmark of the demand path is allocation-free, and
	// so is the whole profiler observer path layered onto it.
	for _, e := range rep.Bench {
		switch e.Package {
		case "ccl/internal/cache", "ccl/internal/profile":
			if e.AllocsPerOp != 0 {
				t.Errorf("%s allocates %d/op in the baseline", e.Key(), e.AllocsPerOp)
			}
		}
	}
	// The profiler-off baseline: attaching nothing must keep the
	// demand path at its recorded cost, and the baseline must carry
	// the three profiler benchmarks for -check to gate against.
	for _, key := range []string{
		"ccl/internal/profile.BenchmarkProfiledAccess",
		"ccl/internal/profile.BenchmarkProfiledAccessSampled",
		"ccl/internal/profile.BenchmarkCollectorOnlyAccess",
	} {
		find(key)
	}
	// Rung ratios of the flat LRU set (package lru): the TLB and the
	// collector's shadow caches each cost a small multiple of the
	// rung below them, measured on the same stream. The pre-flat-lru
	// references keep what the scanned array TLB and the map-backed
	// shadow cost (about 5x each).
	for _, r := range []struct {
		key, below string
		max        float64
	}{
		{"ccl/internal/cache.BenchmarkAccessTLB", "ccl/internal/cache.BenchmarkAccessMissStream", 2},
		{"ccl/internal/profile.BenchmarkCollectorOnlyAccess", "ccl/internal/profile.BenchmarkBareAccess", 3},
	} {
		got, base := find(r.key), find(r.below)
		if got.NsPerOp > r.max*base.NsPerOp {
			t.Errorf("%s records %.1f ns/op, more than %.0fx %s (%.1f)", r.key, got.NsPerOp, r.max, r.below, base.NsPerOp)
		}
		if _, ok := rep.Reference[r.key+".pre-flat-lru"]; !ok {
			t.Errorf("baseline lost the pre-flat-lru reference for %s", r.key)
		}
	}
}

// TestSuitesAreWellFormed keeps the suite list sane: positive fixed
// iteration counts and unique packages (the parser keys entries by
// package, so a duplicate would silently merge).
func TestSuitesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Suites() {
		if s.Iterations <= 0 {
			t.Errorf("suite %s has no fixed iteration count", s.Package)
		}
		if s.Pattern == "" {
			t.Errorf("suite %s has an empty bench pattern", s.Package)
		}
		if seen[s.Package] {
			t.Errorf("suite %s appears twice", s.Package)
		}
		seen[s.Package] = true
		if !strings.HasPrefix(s.Package, "ccl") {
			t.Errorf("suite %s is outside the module", s.Package)
		}
	}
	if suiteIterations("ccl") <= 0 {
		t.Error("root suite missing")
	}
}
