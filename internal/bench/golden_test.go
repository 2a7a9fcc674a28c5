package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ccl/internal/telemetry"
)

const goldenReportPath = "testdata/golden_report.json"

// goldenTables is a fixed synthetic report exercising every field of
// the ccbench -json schema: envelope, table, notes, and the full
// telemetry payload (levels, heatmap, regions). Values are arbitrary;
// the structure is the contract.
func goldenTables() []Table {
	return []Table{
		{
			ID:     "golden",
			Title:  "schema fixture",
			Header: []string{"Workload", "Metric", "Value"},
			Rows: [][]string{
				{"w1", "cycles/search", "12.3"},
				{"w1", "L2 misses (comp/cap/conf)", "30 (10/15/5)"},
			},
			Notes: []string{"fixed fixture locking the ccl-bench/v1 schema"},
			Telemetry: map[string]telemetry.Report{
				"w1": {
					Levels: []telemetry.LevelReport{
						{Name: "L1", Accesses: 100, Misses: 40, Compulsory: 10, Capacity: 20, Conflict: 10},
						{Name: "L2", Accesses: 40, Misses: 30, Compulsory: 10, Capacity: 15, Conflict: 5},
					},
					Heatmap: telemetry.Heatmap{
						Level: "L2", Sets: 4,
						Accesses:  []int64{10, 10, 10, 10},
						Misses:    []int64{8, 1, 1, 0},
						Conflicts: []int64{4, 0, 1, 0},
						Evictions: []int64{8, 1, 1, 0},
					},
					Regions: []telemetry.RegionReport{
						{Label: "golden-nodes", Bytes: 4096, Accesses: 90, MissesByLevel: []int64{35, 25}, Conflict: 9},
						{Label: telemetry.OtherLabel, Bytes: 0, Accesses: 10, MissesByLevel: []int64{5, 5}, Conflict: 1},
					},
				},
			},
		},
		{
			ID:     "bare",
			Title:  "table without telemetry",
			Header: []string{"a"},
			Rows:   [][]string{{"1"}},
		},
	}
}

// TestGoldenReportSchema locks the -json schema with a checked-in
// golden file: the current encoder's output must be byte-identical to
// it, and decoding the golden then re-encoding must reproduce it
// exactly (a lossless round trip). A deliberate schema change means
// regenerating with GOLDEN_UPDATE=1 and bumping ReportSchema.
func TestGoldenReportSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, Report{Schema: ReportSchema, Experiments: goldenTables()}); err != nil {
		t.Fatal(err)
	}
	golden := compareGolden(t, goldenReportPath, buf.Bytes())

	// Round trip: decode the golden, re-encode, byte-compare.
	var rep Report
	if err := json.Unmarshal(golden, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("golden schema %q, code says %q", rep.Schema, ReportSchema)
	}
	var again bytes.Buffer
	if err := WriteReport(&again, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatal("decode -> re-encode of the golden report is not byte-identical: schema has lossy fields")
	}
}

// registryRun runs every registered experiment once per test process,
// through the same pooled runner ccbench and cclserve use; every test
// that reads an experiment's table takes it from this one run.
var registryRun = sync.OnceValue(func() Report {
	return Run(context.Background(), Registry(), Options{})
})

// experiment returns experiment id's quick-scale table from the
// pooled registry run.
func experiment(t *testing.T, id string) Table {
	t.Helper()
	rep := registryRun()
	if rep.Interrupted || len(rep.Failures) != 0 {
		t.Fatalf("registry run: interrupted=%v failures=%+v", rep.Interrupted, rep.Failures)
	}
	for _, tab := range rep.Experiments {
		if tab.ID == id {
			return tab
		}
	}
	t.Fatalf("registry run produced no %q table", id)
	return Table{}
}

// TestGoldenExperiments locks every experiment's quick-scale table
// with a checked-in golden, testdata/golden_<id>.json: the simulator
// and every workload are deterministic, so every cell, note and
// telemetry field must reproduce byte-identically at any worker
// count. A deliberate change to an experiment, a layout, or the cost
// model means regenerating with GOLDEN_UPDATE=1, and the golden diff
// is the review artifact showing what moved.
func TestGoldenExperiments(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			buf, err := json.MarshalIndent(experiment(t, id), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "golden_"+id+".json"), append(buf, '\n'))
		})
	}
}

// compareGolden fails the test unless got is byte-identical to the
// golden file at path, rewriting the file first when GOLDEN_UPDATE is
// set. It returns the golden bytes.
func compareGolden(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(got, golden) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(golden, []byte("\n"))
		i := 0
		for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
			i++
		}
		line := func(ls [][]byte) []byte {
			if i < len(ls) {
				return ls[i]
			}
			return []byte("(end of file)")
		}
		t.Fatalf("output drifted from %s at line %d (regenerate with GOLDEN_UPDATE=1 if intended)\ngot:  %s\nwant: %s",
			path, i+1, line(gl), line(wl))
	}
	return golden
}

// TestMetricRowsTable is the table-driven test for the metrics
// tabulation path.
func TestMetricRowsTable(t *testing.T) {
	rep := telemetry.Report{
		Levels: []telemetry.LevelReport{
			{Name: "L1", Misses: 7, Compulsory: 1, Capacity: 2, Conflict: 4},
			{Name: "L2", Misses: 3, Compulsory: 1, Capacity: 1, Conflict: 1},
		},
		Regions: []telemetry.RegionReport{
			{Label: "nodes", MissesByLevel: []int64{5, 2}, Conflict: 1},
			{Label: "(other)", MissesByLevel: []int64{2, 1}, Conflict: 0},
		},
	}
	cases := []struct {
		name     string
		cycles   int64
		searches int
		wantRows int
		contains []string
	}{
		{"simple", 1000, 100, 5, []string{"10.0", "7 (1/2/4)", "3 (1/1/1)", "L2 misses <- nodes", "2 (conflict 1)"}},
		{"one-search", 123, 1, 5, []string{"123.0"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows := metricRows("w", rep, c.cycles, c.searches)
			if len(rows) != c.wantRows {
				t.Fatalf("%d rows, want %d: %v", len(rows), c.wantRows, rows)
			}
			var flat strings.Builder
			for _, r := range rows {
				if r[0] != "w" {
					t.Errorf("row not labeled with workload: %v", r)
				}
				flat.WriteString(strings.Join(r, " | ") + "\n")
			}
			for _, want := range c.contains {
				if !strings.Contains(flat.String(), want) {
					t.Errorf("rows missing %q:\n%s", want, flat.String())
				}
			}
		})
	}
}

// TestHeatmapNoteShape: the heatmap note block must carry the phase
// label and indent every rendered line under it.
func TestHeatmapNoteShape(t *testing.T) {
	rep := telemetry.Report{
		Heatmap: telemetry.Heatmap{
			Level: "L2", Sets: 8,
			Accesses:  []int64{9, 0, 1, 2, 3, 4, 5, 6},
			Misses:    []int64{9, 0, 0, 0, 0, 0, 0, 1},
			Conflicts: []int64{8, 0, 0, 0, 0, 0, 0, 0},
			Evictions: []int64{9, 0, 0, 0, 0, 0, 0, 1},
		},
	}
	notes := heatmapNote("phase-x", rep)
	if len(notes) < 2 || notes[0] != "phase-x:" {
		t.Fatalf("note block malformed: %v", notes)
	}
	for _, l := range notes[1:] {
		if !strings.HasPrefix(l, "  ") {
			t.Errorf("heatmap line not indented: %q", l)
		}
	}
}

// TestFormatHelpers pins the cell formatting the paper tables rely
// on.
func TestFormatHelpers(t *testing.T) {
	cases := []struct{ got, want string }{
		{f1(1.26), "1.3"},
		{f1(0), "0.0"},
		{f2(1.267), "1.27"},
		{pct(12.34), "12.3%"},
		{pct(-3.21), "-3.2%"},
		{kb(2048), "2KB"},
		{kb(1023), "0KB"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("formatted %q, want %q", c.got, c.want)
		}
	}
}
