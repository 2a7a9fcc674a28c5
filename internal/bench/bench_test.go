package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"ccl/internal/olden"
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

// TestTable2FullInputLabels checks that Table 2's Input column names
// the paper-scale configs a -full run executes, not the quick ones.
func TestTable2FullInputLabels(t *testing.T) {
	spec, ok := Lookup("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	out := make([]any, len(oldenBenches))
	for i := range out {
		out[i] = olden.Result{HeapBytes: 1 << 20}
	}
	tab := spec.Assemble(true, out)
	want := map[string]string{
		"treeadd":   "262143 nodes",
		"health":    "85 villages, 3000 steps",
		"mst":       "512 nodes",
		"perimeter": "4096x4096 image",
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("Table 2 has %d rows, want %d", len(tab.Rows), len(want))
	}
	for _, r := range tab.Rows {
		if r[3] != want[r[0]] {
			t.Errorf("%s: -full Input = %q, want %q", r[0], r[3], want[r[0]])
		}
	}
}

// TestEverySpecAtBothScales checks every experiment's decomposition
// at quick and at paper scale without running a job: Jobs is
// non-empty with unique names, and Assemble tolerates a nil payload
// for every job, the contract failed and skipped jobs rely on
// (jobs.go).
func TestEverySpecAtBothScales(t *testing.T) {
	for _, sp := range Registry() {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/full=%v", sp.ID, full), func(t *testing.T) {
				jobs := sp.Jobs(full)
				if len(jobs) == 0 {
					t.Fatal("no jobs")
				}
				seen := map[string]bool{}
				for _, j := range jobs {
					if seen[j.Name] {
						t.Errorf("job name %q repeated", j.Name)
					}
					seen[j.Name] = true
				}
				if tab := sp.Assemble(full, make([]any, len(jobs))); tab.ID != sp.ID {
					t.Errorf("Assemble over nil payloads made table %q", tab.ID)
				}
			})
		}
	}
}

// TestJobsCarryTheirScale runs table2's quick jobs with a full flag of
// true: a job runs at the scale of the Jobs call that built it, so
// they must still assemble the quick golden table.
func TestJobsCarryTheirScale(t *testing.T) {
	spec, ok := Lookup("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	jobs := spec.Jobs(false)
	out := make([]any, len(jobs))
	for i, j := range jobs {
		v, err := j.Run(context.Background(), sim.New(), true)
		if err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		out[i] = v
	}
	got, err := json.MarshalIndent(spec.Assemble(false, out), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden_table2.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Errorf("quick jobs run with full=true assembled\n%s\nwant testdata/golden_table2.json:\n%s", got, want)
	}
}

func TestTable3Qualitative(t *testing.T) {
	tab := Table3()
	if len(tab.Rows) != 3 || tab.Rows[1][0] != "ccmorph" || tab.Rows[2][0] != "ccmalloc" {
		t.Fatalf("Table 3 rows wrong: %v", tab.Rows)
	}
}

// TestAblationBlockSizeTracksModel checks that the block-size sweep
// leaves its shared machine row alone: every job shares blockMachine's
// row and sets the block size on its own copy, so after the run the
// row keeps §4.1's 64-byte L2 blocks. The sweep's shape is the
// ablate-block claim of TestClaims.
func TestAblationBlockSizeTracksModel(t *testing.T) {
	experiment(t, "ablate-block")
	if got := blockMachine.quick.Levels[1].BlockSize; got != 64 {
		t.Errorf("a job wrote to the shared row: its L2 block is now %d B", got)
	}
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
	if err := WriteReport(&buf, Report{Schema: ReportSchema, Full: true, Experiments: tabs}); err != nil {
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
