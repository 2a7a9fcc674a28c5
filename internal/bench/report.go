// Package bench regenerates every table and figure of the paper's
// evaluation (§4, §5.4): each experiment returns a Table whose rows
// mirror what the paper reports, and cmd/ccbench renders them.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ccl/internal/profile"
	"ccl/internal/telemetry"
)

// Table is one experiment's output: the rows/series of a paper table
// or figure. The json tags define the machine-readable schema ccbench
// -json emits (see DESIGN.md "Telemetry" for the full schema).
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Telemetry carries the metrics experiment's raw reports, keyed
	// by workload phase (e.g. "bst-base", "ctree"). Nil for
	// experiments that only tabulate.
	Telemetry map[string]telemetry.Report `json:"telemetry,omitempty"`
	// Profiles carries the fieldprof experiment's ccl-profile/v1
	// reports, keyed by workload. Nil for unprofiled experiments, so
	// earlier ccl-bench/v1 readers (and goldens) are unaffected.
	Profiles map[string]profile.Report `json:"profiles,omitempty"`
}

// Render writes the table as aligned ASCII. Rows may be ragged: cells
// beyond the header's width get their own columns (with empty header
// cells), and short rows simply end early.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	ncols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(c)
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		fmt.Fprintln(w, "  "+b.String())
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// ReportSchema identifies the ccbench -json output format. Bump it
// when the structure of Report changes incompatibly.
const ReportSchema = "ccl-bench/v1"

// Report is the machine-readable envelope ccbench -json writes: every
// experiment that ran, in order, plus enough provenance to interpret
// the numbers later (schema version, quick-vs-full scale). It is the
// record format for committed BENCH_*.json perf-trajectory files.
type Report struct {
	Schema      string  `json:"schema"`
	Full        bool    `json:"full"`
	Experiments []Table `json:"experiments"`
	// Failures records experiments that panicked instead of producing
	// a table; a clean run omits the field entirely, so the additions
	// are schema-compatible with earlier ccl-bench/v1 reports.
	Failures []Failure `json:"failures,omitempty"`
	// Interrupted is set when the run was cut short (SIGINT) and the
	// report holds only the experiments that completed.
	Interrupted bool `json:"interrupted,omitempty"`
	// Timings records per-experiment wall-clock spans, in registry
	// order. They are the only nondeterministic part of a report:
	// comparing runs (e.g. the serial-vs-parallel equivalence test)
	// means comparing everything else and ignoring or zeroing these.
	Timings []Timing `json:"timings,omitempty"`
}

// Timing is one experiment's wall-clock record: the span from its
// first job starting to its last job finishing on the worker pool.
type Timing struct {
	Experiment string `json:"experiment"`
	WallUS     int64  `json:"wall_us"`
	Jobs       int    `json:"jobs"`
}

// StripTimings returns a copy of rep with every wall-time field
// zeroed, leaving the deterministic remainder — the comparable
// payload for serial-vs-parallel equivalence checks.
func StripTimings(rep Report) Report {
	out := rep
	out.Timings = make([]Timing, len(rep.Timings))
	for i, tm := range rep.Timings {
		tm.WallUS = 0
		out.Timings[i] = tm
	}
	return out
}

// WriteReport writes a fully-populated Report (including failures and
// the interrupted marker) as indented JSON.
func WriteReport(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
func kb(v int64) string    { return fmt.Sprintf("%dKB", v/1024) }
