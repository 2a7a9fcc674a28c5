package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccl/internal/memsys"
	"ccl/internal/sim"
)

// testSpec builds a synthetic spec whose jobs return their own index
// after an optional per-job delay, assembling into one row per job.
func testSpec(id string, n int, delay func(i int) time.Duration, fail func(i int) error) Spec {
	return Spec{
		ID:   id,
		Desc: "synthetic " + id,
		Jobs: func(full bool) []Job {
			var js []Job
			for i := 0; i < n; i++ {
				i := i
				js = append(js, Job{
					Name: fmt.Sprintf("%s/%d", id, i),
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						if delay != nil {
							time.Sleep(delay(i))
						}
						if fail != nil {
							if err := fail(i); err != nil {
								return nil, err
							}
						}
						return i, nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{ID: id, Title: id, Header: []string{"job", "value"}}
			for i, v := range out {
				k, ok := v.(int)
				if !ok {
					continue
				}
				tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%d", i), fmt.Sprintf("%d", k)})
			}
			return tab
		},
	}
}

// TestPoolRegistryOrder runs specs whose jobs finish in scrambled
// order and asserts tables still stream and assemble in registry
// order.
func TestPoolRegistryOrder(t *testing.T) {
	// The first spec's jobs are slow, so later specs finish first.
	specs := []Spec{
		testSpec("slow", 3, func(i int) time.Duration { return 30 * time.Millisecond }, nil),
		testSpec("mid", 3, func(i int) time.Duration { return 5 * time.Millisecond }, nil),
		testSpec("fast", 3, nil, nil),
	}
	var streamed []string
	rep := Run(context.Background(), specs, Options{
		Parallel: 4,
		OnTable:  func(tab Table, wall time.Duration) { streamed = append(streamed, tab.ID) },
	})
	want := []string{"slow", "mid", "fast"}
	if strings.Join(streamed, ",") != strings.Join(want, ",") {
		t.Errorf("OnTable order = %v, want %v", streamed, want)
	}
	if len(rep.Experiments) != 3 {
		t.Fatalf("report has %d experiments, want 3", len(rep.Experiments))
	}
	for i, id := range want {
		if rep.Experiments[i].ID != id {
			t.Errorf("report[%d] = %s, want %s", i, rep.Experiments[i].ID, id)
		}
		if len(rep.Experiments[i].Rows) != 3 {
			t.Errorf("%s has %d rows, want 3", id, len(rep.Experiments[i].Rows))
		}
	}
	if rep.Interrupted {
		t.Error("clean run marked interrupted")
	}
	if len(rep.Timings) != 3 || rep.Timings[0].Experiment != "slow" || rep.Timings[0].Jobs != 3 {
		t.Errorf("timings wrong: %+v", rep.Timings)
	}
}

// TestPoolFailureRecords verifies job errors and panics become
// structured Failure records — named, classed, non-fatal — and the
// assembled table notes the omission.
func TestPoolFailureRecords(t *testing.T) {
	boom := errors.New("job exploded")
	specs := []Spec{
		testSpec("ok", 2, nil, nil),
		testSpec("bad", 3, nil, func(i int) error {
			if i == 1 {
				return boom
			}
			return nil
		}),
		{
			ID:   "panicky",
			Desc: "job panics",
			Jobs: func(full bool) []Job {
				return []Job{{Name: "panicky/0", Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
					panic("kaboom")
				}}}
			},
			Assemble: func(full bool, out []any) Table { return Table{ID: "panicky"} },
		},
	}
	rep := Run(context.Background(), specs, Options{Parallel: 2})
	if len(rep.Failures) != 2 {
		t.Fatalf("failures = %+v, want 2", rep.Failures)
	}
	if rep.Failures[0].Experiment != "bad" || rep.Failures[0].Job != "bad/1" || !strings.Contains(rep.Failures[0].Error, "job exploded") {
		t.Errorf("bad failure record: %+v", rep.Failures[0])
	}
	if rep.Failures[1].Experiment != "panicky" || rep.Failures[1].Job != "panicky/0" || !strings.Contains(rep.Failures[1].Error, "kaboom") {
		t.Errorf("panic failure record: %+v", rep.Failures[1])
	}
	// bad still assembled from its surviving jobs, with the omission
	// noted; panicky had no surviving jobs, so no table.
	var bad *Table
	for i := range rep.Experiments {
		if rep.Experiments[i].ID == "bad" {
			bad = &rep.Experiments[i]
		}
		if rep.Experiments[i].ID == "panicky" {
			t.Error("experiment with zero completed jobs produced a table")
		}
	}
	if bad == nil {
		t.Fatal("bad's partial table missing")
	}
	if len(bad.Rows) != 2 {
		t.Errorf("bad rows = %v, want the 2 surviving jobs", bad.Rows)
	}
	if len(bad.Notes) == 0 || !strings.Contains(bad.Notes[len(bad.Notes)-1], "1 job(s) failed") {
		t.Errorf("bad's table does not note the omission: %v", bad.Notes)
	}
}

// TestPoolAssemblePanicIsFailure verifies a panic inside Assemble
// (the interval ablation's checksum cross-check) becomes a Failure,
// not a crash.
func TestPoolAssemblePanicIsFailure(t *testing.T) {
	sp := testSpec("x", 2, nil, nil)
	sp.Assemble = func(full bool, out []any) Table { panic("checksum mismatch") }
	rep := Run(context.Background(), []Spec{sp}, Options{Parallel: 2})
	if len(rep.Experiments) != 0 {
		t.Errorf("experiments = %+v, want none", rep.Experiments)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Job != "x/assemble" || !strings.Contains(rep.Failures[0].Error, "checksum mismatch") {
		t.Fatalf("failures = %+v", rep.Failures)
	}
}

// TestPoolCancellation cancels mid-run and asserts the report is
// still valid: completed experiments intact, partial ones marked
// interrupted, nothing deadlocks.
func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	gate := make(chan struct{})
	specs := []Spec{
		testSpec("done", 2, nil, nil),
		{
			ID:   "cut",
			Desc: "cancelled mid-flight",
			Jobs: func(full bool) []Job {
				var js []Job
				for i := 0; i < 6; i++ {
					i := i
					js = append(js, Job{Name: fmt.Sprintf("cut/%d", i), Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						if started.Add(1) == 2 {
							cancel()
							close(gate)
						} else {
							<-gate // hold until the cancel lands
						}
						return i, nil
					}})
				}
				return js
			},
			Assemble: func(full bool, out []any) Table {
				tab := Table{ID: "cut", Title: "cut", Header: []string{"i"}}
				for _, v := range out {
					if k, ok := v.(int); ok {
						tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%d", k)})
					}
				}
				return tab
			},
		},
	}
	rep := Run(ctx, specs, Options{Parallel: 2})
	if !rep.Interrupted {
		t.Fatal("cancelled run not marked interrupted")
	}
	var done, cut *Table
	for i := range rep.Experiments {
		switch rep.Experiments[i].ID {
		case "done":
			done = &rep.Experiments[i]
		case "cut":
			cut = &rep.Experiments[i]
		}
	}
	if done == nil || len(done.Rows) != 2 {
		t.Errorf("completed experiment damaged by cancellation: %+v", done)
	}
	if cut == nil {
		t.Fatal("partially-run experiment missing from report")
	}
	if len(cut.Rows) == 0 || len(cut.Rows) >= 6 {
		t.Errorf("cut rows = %d, want partial (some ran, some skipped)", len(cut.Rows))
	}
	if len(cut.Notes) == 0 || cut.Notes[len(cut.Notes)-1] != interruptedNote {
		t.Errorf("partial table not marked interrupted: %v", cut.Notes)
	}
}

// TestPoolFaultInjectionPerJob verifies the -fault plumbing: with
// Options.NewSim arming a fresh injector per job, every job sees the
// fault at the same point, independent of parallelism.
func TestPoolFaultInjectionPerJob(t *testing.T) {
	var armed atomic.Int64
	opt := Options{
		Parallel: 3,
		NewSim: func() *sim.Sim {
			armed.Add(1)
			s := sim.New()
			s.SetGuard(func(memsys.GuardEvent, int64) error { return errors.New("injected") })
			return s
		},
	}
	sp := Spec{
		ID:   "faulty",
		Desc: "every job's arena grow fails",
		Jobs: func(full bool) []Job {
			var js []Job
			for i := 0; i < 4; i++ {
				i := i
				js = append(js, Job{Name: fmt.Sprintf("faulty/%d", i), Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
					_, err := s.NewArena(0).Grow(4096)
					return i, err
				}})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table { return Table{ID: "faulty"} },
	}
	rep := Run(context.Background(), []Spec{sp}, opt)
	if got := armed.Load(); got != 4 {
		t.Errorf("NewSim called %d times, want once per job (4)", got)
	}
	if len(rep.Failures) != 4 {
		t.Fatalf("failures = %d, want every job to hit its own injected fault", len(rep.Failures))
	}
	for _, f := range rep.Failures {
		if !strings.Contains(f.Error, "injected") {
			t.Errorf("unexpected failure: %+v", f)
		}
	}
}
