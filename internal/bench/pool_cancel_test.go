package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"ccl/internal/sim"
)

// countSpec builds a spec of n instant jobs that count how many
// actually ran, for the prompt-stop tests.
func countSpec(id string, n int, ran *atomic.Int64) Spec {
	sp := testSpec(id, n, nil, nil)
	inner := sp.Jobs
	sp.Jobs = func(full bool) []Job {
		js := inner(full)
		for i := range js {
			run := js[i].Run
			js[i].Run = func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
				ran.Add(1)
				return run(ctx, s, full)
			}
		}
		return js
	}
	return sp
}

// TestPoolCancellationTable drives the cancellation contract across
// pool shapes: a context cancelled before the run starts queues no
// jobs at all, and a context cancelled mid-run stops the remaining
// queue promptly while keeping the report schema-valid.
func TestPoolCancellationTable(t *testing.T) {
	cases := []struct {
		name     string
		parallel int
		jobs     int
		cancelAt int64 // after this many jobs started; 0 = before the run
	}{
		{"pre-cancelled/serial", 1, 8, 0},
		{"pre-cancelled/parallel", 4, 8, 0},
		{"mid-run/serial", 1, 8, 3},
		{"mid-run/parallel", 2, 12, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int64
			sp := testSpec("x", tc.jobs, nil, nil)
			inner := sp.Jobs
			sp.Jobs = func(full bool) []Job {
				js := inner(full)
				for i := range js {
					run := js[i].Run
					js[i].Run = func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						if ran.Add(1) == tc.cancelAt {
							cancel()
						}
						return run(ctx, s, full)
					}
				}
				return js
			}
			if tc.cancelAt == 0 {
				cancel()
			}
			rep := Run(ctx, []Spec{sp}, Options{Parallel: tc.parallel})
			if !rep.Interrupted {
				t.Fatal("cancelled run not marked interrupted")
			}
			if tc.cancelAt == 0 {
				if got := ran.Load(); got != 0 {
					t.Fatalf("%d job(s) started under a pre-cancelled context", got)
				}
				if len(rep.Experiments) != 0 {
					t.Fatalf("untouched experiment produced a table: %+v", rep.Experiments)
				}
				// A report with zero tables must still be schema-valid.
				if rep.Schema != ReportSchema {
					t.Fatalf("schema = %q", rep.Schema)
				}
				return
			}
			// Mid-run: jobs stop promptly — at most cancelAt + the
			// workers already holding a job can run (each worker checks
			// ctx before starting its next job).
			if got, max := ran.Load(), tc.cancelAt+int64(tc.parallel); got > max {
				t.Errorf("%d jobs ran after cancellation at %d with %d workers (max %d)",
					got, tc.cancelAt, tc.parallel, max)
			}
			if len(rep.Experiments) != 1 {
				t.Fatalf("partial experiment missing: %+v", rep.Experiments)
			}
			tab := rep.Experiments[0]
			if len(tab.Notes) == 0 || tab.Notes[len(tab.Notes)-1] != interruptedNote {
				t.Errorf("partial table not marked interrupted: %v", tab.Notes)
			}
		})
	}
}

// TestPoolSkippedVsFailedAccounting distinguishes the two ways a job
// can fail to contribute a row: jobs that never started because the
// run was cancelled are skipped (no Failure record), jobs that ran
// and returned an error are failed (one Failure record each). The
// distinction is what lets a drain report "cancelled work" apart from
// "broken work".
func TestPoolSkippedVsFailedAccounting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var progress []Progress
	boom := fmt.Errorf("deliberate failure")
	var started atomic.Int64
	sp := Spec{
		ID:   "acct",
		Desc: "skipped vs failed",
		Jobs: func(full bool) []Job {
			var js []Job
			for i := 0; i < 6; i++ {
				js = append(js, Job{Name: fmt.Sprintf("acct/%d", i), Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
					n := started.Add(1)
					if n == 2 {
						cancel() // jobs 3.. never start: skipped
					}
					if i == 0 {
						return nil, boom // ran and failed: a Failure record
					}
					return i, nil
				}})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{ID: "acct", Header: []string{"i"}}
			for _, v := range out {
				if k, ok := v.(int); ok {
					tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%d", k)})
				}
			}
			return tab
		},
	}
	rep := Run(ctx, []Spec{sp}, Options{
		Parallel:   1, // serial makes the started/skipped split exact
		OnProgress: func(p Progress) { progress = append(progress, p) },
	})
	if len(progress) != 1 {
		t.Fatalf("progress notices = %d, want 1", len(progress))
	}
	p := progress[0]
	if p.Failed != 1 {
		t.Errorf("Failed = %d, want 1 (the job that ran and returned an error)", p.Failed)
	}
	if p.Skipped != 4 {
		t.Errorf("Skipped = %d, want 4 (jobs 3..6 never started)", p.Skipped)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Job != "acct/0" {
		t.Errorf("failures = %+v, want exactly acct/0", rep.Failures)
	}
	if !rep.Interrupted {
		t.Error("run with skipped jobs not marked interrupted")
	}
}

// TestPoolPartialCancellationSerialParallelMatch cancels at the same
// job boundary in a serial and a parallel run and asserts the
// assembled reports agree byte-for-byte once timings are stripped:
// cancellation must not be able to corrupt determinism, only truncate
// it. The cut lands between specs (the first spec completes, the
// second never starts), which is the only cancellation point whose
// visible truncation is identical at every worker count.
func TestPoolPartialCancellationSerialParallelMatch(t *testing.T) {
	run := func(parallel int) Report {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var n atomic.Int64
		first := countSpec("first", 4, &n)
		// Cancel once every first-spec job has run; with Parallel ≤ 4
		// no second-spec job can have been issued before the last
		// first-spec job finishes only in the serial case, so gate the
		// second spec's jobs on the cancellation instead: they observe
		// ctx and refuse, landing as skipped either way.
		inner := first.Jobs
		first.Jobs = func(full bool) []Job {
			js := inner(full)
			for i := range js {
				run := js[i].Run
				js[i].Run = func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
					v, err := run(ctx, s, full)
					if n.Load() == 4 {
						cancel()
					}
					return v, err
				}
			}
			return js
		}
		gate := Spec{
			ID:   "second",
			Desc: "starts only after cancellation",
			Jobs: func(full bool) []Job {
				var js []Job
				for i := 0; i < 3; i++ {
					js = append(js, Job{Name: fmt.Sprintf("second/%d", i), Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						<-ctx.Done() // refuse to do work once draining
						return nil, ctx.Err()
					}})
				}
				return js
			},
			Assemble: func(full bool, out []any) Table {
				tab := Table{ID: "second", Header: []string{"v"}}
				for _, v := range out {
					if k, ok := v.(int); ok {
						tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%d", k)})
					}
				}
				return tab
			},
		}
		return Run(ctx, []Spec{first, gate}, Options{Parallel: parallel})
	}

	serial, parallel := StripTimings(run(1)), StripTimings(run(4))
	// The serial run skips second's jobs outright; the parallel run
	// may have handed some to workers that then observed ctx and
	// returned ctx.Err(). Both are truncation, but only the completed
	// experiment's payload must match exactly.
	sj, _ := json.Marshal(firstTable(t, serial, "first"))
	pj, _ := json.Marshal(firstTable(t, parallel, "first"))
	if string(sj) != string(pj) {
		t.Errorf("completed experiment diverged across worker counts:\nserial:   %s\nparallel: %s", sj, pj)
	}
	if !serial.Interrupted || !parallel.Interrupted {
		t.Error("partial runs not marked interrupted")
	}
}

func firstTable(t *testing.T, rep Report, id string) Table {
	t.Helper()
	for _, tab := range rep.Experiments {
		if tab.ID == id {
			return tab
		}
	}
	t.Fatalf("experiment %s missing from report", id)
	return Table{}
}
