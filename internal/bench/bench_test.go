package bench

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ccl/internal/sim"
	"ccl/internal/telemetry"
)

func TestRenderAlignsColumns(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"name", "value"},
		Rows:   [][]string{{"a", "1"}, {"longer-name", "12345"}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo", "longer-name", "12345", "note: a note", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1HasPaperParameters(t *testing.T) {
	tab := Table1()
	var joined strings.Builder
	tab.Render(&joined)
	for _, want := range []string{"16KB", "256KB", "128 bytes", "+60 cycles"} {
		if !strings.Contains(joined.String(), want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2RowsAndMemory(t *testing.T) {
	tab := experiment(t, "table2")
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 2 has %d rows, want 4", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if !strings.HasSuffix(r[4], "KB") {
			t.Errorf("%s: memory column %q not measured", r[0], r[4])
		}
	}
}

func TestTable3Qualitative(t *testing.T) {
	tab := Table3()
	if len(tab.Rows) != 3 || tab.Rows[1][0] != "ccmorph" || tab.Rows[2][0] != "ccmalloc" {
		t.Fatalf("Table 3 rows wrong: %v", tab.Rows)
	}
}

func TestControlDirection(t *testing.T) {
	tab := experiment(t, "control")
	if len(tab.Rows) != 4 {
		t.Fatalf("control has %d rows", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		slow := strings.TrimSuffix(r[3], "%")
		v, err := strconv.ParseFloat(slow, 64)
		if err != nil {
			t.Fatalf("%s: bad slowdown %q", r[0], r[3])
		}
		if v <= 0 {
			t.Errorf("%s: null-hint control not slower than base (%v%%)", r[0], v)
		}
	}
}

func TestAblationColorFracMonotoneRegion(t *testing.T) {
	tab := experiment(t, "ablate-color")
	if len(tab.Rows) != 5 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	parse := func(i int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[i][1], 64)
		if err != nil {
			t.Fatalf("bad speedup %q", tab.Rows[i][1])
		}
		return v
	}
	// Coloring must add something over clustering alone on a tree
	// much larger than the cache.
	if parse(3) <= parse(0) {
		t.Errorf("ColorFrac 0.5 (%.2f) not better than clustering-only (%.2f)", parse(3), parse(0))
	}
	for i := 0; i < 5; i++ {
		if parse(i) < 1 {
			t.Errorf("row %d: reorganization slower than naive (%.2f)", i, parse(i))
		}
	}
}

func TestAblationBlockSizeTracksModel(t *testing.T) {
	tab := experiment(t, "ablate-block")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prev := 0.0
	for i, r := range tab.Rows {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("bad speedup %q", r[3])
		}
		if v <= prev {
			t.Errorf("row %d: speedup %.2f not increasing with block size", i, v)
		}
		prev = v
	}
}

func TestOldenRunUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown benchmark did not panic")
		}
	}()
	oldenRun(sim.New(), "nonesuch", 0, false)
}

func TestRenderRaggedRows(t *testing.T) {
	tab := Table{
		ID:     "ragged",
		Title:  "rows wider and narrower than the header",
		Header: []string{"a", "b"},
		Rows: [][]string{
			{"short"},                       // narrower than header
			{"x", "y", "extra", "and-more"}, // wider than header
			{"normal", "row"},
		},
	}
	var sb strings.Builder
	tab.Render(&sb) // must not panic
	out := sb.String()
	for _, want := range []string{"short", "extra", "and-more", "normal"} {
		if !strings.Contains(out, want) {
			t.Errorf("ragged render lost cell %q:\n%s", want, out)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tabs := []Table{
		{
			ID:     "t",
			Title:  "title",
			Header: []string{"h1", "h2"},
			Rows:   [][]string{{"a", "1"}},
			Notes:  []string{"n"},
			Telemetry: map[string]telemetry.Report{
				"phase": {
					Levels: []telemetry.LevelReport{{Name: "L1", Accesses: 10, Misses: 3, Compulsory: 1, Capacity: 1, Conflict: 1}},
					Heatmap: telemetry.Heatmap{
						Level: "L1", Sets: 2,
						Accesses: []int64{6, 4}, Misses: []int64{2, 1},
						Conflicts: []int64{1, 0}, Evictions: []int64{2, 1},
					},
					Regions: []telemetry.RegionReport{{Label: "r", Bytes: 64, Accesses: 10, MissesByLevel: []int64{3}, Conflict: 1}},
				},
			},
		},
	}
	var buf strings.Builder
	if err := WriteJSON(&buf, true, tabs); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if got.Schema != ReportSchema || !got.Full {
		t.Fatalf("envelope = %q full=%v", got.Schema, got.Full)
	}
	if !reflect.DeepEqual(got.Experiments, tabs) {
		t.Fatalf("round trip changed the tables:\ngot  %+v\nwant %+v", got.Experiments, tabs)
	}
}

func TestMetricsExperiment(t *testing.T) {
	tab := experiment(t, "metrics")
	if tab.ID != "metrics" || len(tab.Rows) == 0 {
		t.Fatalf("metrics table malformed: id=%q rows=%d", tab.ID, len(tab.Rows))
	}
	for _, phase := range []string{"bst-base", "ctree", "radiance-clustering", "radiance-clustering+coloring"} {
		rep, ok := tab.Telemetry[phase]
		if !ok {
			t.Fatalf("telemetry missing phase %q", phase)
		}
		if len(rep.Levels) == 0 || rep.Levels[0].Accesses == 0 {
			t.Errorf("phase %q has empty level telemetry", phase)
		}
		if rep.Heatmap.Sets == 0 {
			t.Errorf("phase %q has no heatmap", phase)
		}
	}
	// The experiment's reason to exist: reorganization reduces misses,
	// and the before/after attribution shows traffic moving to the new
	// structure.
	base := tab.Telemetry["bst-base"]
	ctree := tab.Telemetry["ctree"]
	lb, lc := base.Levels[len(base.Levels)-1], ctree.Levels[len(ctree.Levels)-1]
	if lc.Misses >= lb.Misses {
		t.Errorf("ctree LLC misses (%d) not below bst-base (%d)", lc.Misses, lb.Misses)
	}
	var oldRegion, newRegion *telemetry.RegionReport
	for i := range ctree.Regions {
		switch ctree.Regions[i].Label {
		case "bst-nodes(old)":
			oldRegion = &ctree.Regions[i]
		case "ctree-nodes":
			newRegion = &ctree.Regions[i]
		}
	}
	if oldRegion == nil || newRegion == nil {
		t.Fatalf("ctree regions missing: %+v", ctree.Regions)
	}
	if newRegion.Accesses == 0 {
		t.Error("no accesses attributed to the reorganized layout")
	}
	if oldRegion.Accesses != 0 {
		t.Errorf("searches still touching the old layout: %d accesses", oldRegion.Accesses)
	}
}
