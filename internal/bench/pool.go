package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccl/internal/sim"
)

// Options configures a pooled experiment run.
type Options struct {
	// Full selects paper-scale workloads.
	Full bool
	// Parallel bounds the worker pool; a non-positive value selects
	// GOMAXPROCS. Parallel 1 is the strictly serial reference run.
	Parallel int
	// NewSim builds the run context handed to each job. Every job
	// gets a fresh context, so guards armed here (cmd/ccbench -fault
	// arms a fresh injector per context) fire on deterministic
	// per-job schedules no matter how many jobs run concurrently.
	// Nil selects sim.New.
	NewSim func() *sim.Sim
	// OnTable, when non-nil, receives every assembled table in
	// registry order, each as soon as it and all its predecessors
	// are done — the streaming path ccbench renders from.
	OnTable func(t Table, wall time.Duration)
	// OnProgress, when non-nil, receives one completion notice per
	// experiment, in completion order (which under parallelism can
	// differ from registry order).
	OnProgress func(p Progress)
}

// Progress is the per-experiment completion notice the runner emits.
type Progress struct {
	ID      string
	Wall    time.Duration // span from first job start to last job end
	Jobs    int           // jobs the experiment fanned out into
	Failed  int           // jobs that ended in a Failure record
	Skipped int           // jobs cancellation prevented from starting
	Done    int           // experiments finished so far, this one included
	Total   int           // experiments in the run
}

// jobResult is what a worker reports back for one job.
type jobResult struct {
	spec, idx  int
	val        any
	fail       *Failure
	skipped    bool // never started: the run was cancelled first
	start, end time.Time
}

// specState accumulates one experiment's results until its last job
// lands.
type specState struct {
	out        []any
	fails      []*Failure // indexed by job, nil when the job succeeded
	remaining  int
	skipped    int
	failed     int
	start, end time.Time
	done       bool
	table      *Table
	wall       time.Duration
	failList   []*Failure // job order, assembly failure last
}

// Run executes the specs' jobs on a bounded worker pool and
// assembles the results deterministically: tables, failures, and
// timings appear in registry (specs-slice) order regardless of
// Parallel, and — because every job builds its workload from fixed
// seeds inside its own run context — the assembled experiment tables
// are byte-identical for any worker count.
//
// Cancelling ctx stops new jobs from starting while running jobs
// drain. Experiments whose jobs all completed are assembled normally;
// partially complete ones are assembled from the jobs that finished
// and marked interrupted; untouched ones are omitted. The returned
// report is always schema-valid, so a SIGINT mid-run still flushes a
// meaningful partial record.
func Run(ctx context.Context, specs []Spec, opt Options) Report {
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	newSim := opt.NewSim
	if newSim == nil {
		newSim = sim.New
	}

	jobs := make([][]Job, len(specs))
	st := make([]*specState, len(specs))
	type ref struct{ spec, idx int }
	var refs []ref
	for i, sp := range specs {
		jobs[i] = sp.Jobs(opt.Full)
		st[i] = &specState{
			out:       make([]any, len(jobs[i])),
			fails:     make([]*Failure, len(jobs[i])),
			remaining: len(jobs[i]),
		}
		for j := range jobs[i] {
			refs = append(refs, ref{i, j})
		}
	}
	if workers > len(refs) {
		workers = len(refs)
	}

	results := make(chan jobResult, len(refs))
	var cursor atomic.Int64
	cursor.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := cursor.Add(1)
				if n >= int64(len(refs)) {
					return
				}
				r := refs[n]
				if ctx.Err() != nil {
					results <- jobResult{spec: r.spec, idx: r.idx, skipped: true}
					continue
				}
				results <- runJob(ctx, specs[r.spec].ID, jobs[r.spec][r.idx], r.spec, r.idx, newSim(), opt.Full)
			}
		}()
	}

	// The coordinator is the only goroutine that touches specState,
	// assembles tables, and issues callbacks, so assembly order and
	// callback order are deterministic by construction.
	doneCount := 0
	nextEmit := 0
	for got := 0; got < len(refs); got++ {
		r := <-results
		s := st[r.spec]
		s.remaining--
		if r.skipped {
			s.skipped++
		} else {
			s.out[r.idx] = r.val
			if r.fail != nil {
				s.fails[r.idx] = r.fail
				s.failed++
			}
			if s.start.IsZero() || r.start.Before(s.start) {
				s.start = r.start
			}
			if r.end.After(s.end) {
				s.end = r.end
			}
		}
		if s.remaining > 0 {
			continue
		}
		finalize(specs[r.spec], s, opt.Full)
		doneCount++
		if opt.OnProgress != nil {
			opt.OnProgress(Progress{
				ID:      specs[r.spec].ID,
				Wall:    s.wall,
				Jobs:    len(jobs[r.spec]),
				Failed:  s.failed,
				Skipped: s.skipped,
				Done:    doneCount,
				Total:   len(specs),
			})
		}
		for nextEmit < len(specs) && st[nextEmit].done {
			if st[nextEmit].table != nil && opt.OnTable != nil {
				opt.OnTable(*st[nextEmit].table, st[nextEmit].wall)
			}
			nextEmit++
		}
	}
	wg.Wait()

	rep := Report{Schema: ReportSchema, Full: opt.Full}
	for i, sp := range specs {
		s := st[i]
		if s.table != nil {
			rep.Experiments = append(rep.Experiments, *s.table)
		}
		for _, f := range s.failList {
			rep.Failures = append(rep.Failures, *f)
		}
		if !s.start.IsZero() { // at least one job actually ran
			rep.Timings = append(rep.Timings, Timing{
				Experiment: sp.ID,
				WallUS:     s.wall.Microseconds(),
				Jobs:       len(jobs[i]),
			})
		}
		if s.skipped > 0 {
			rep.Interrupted = true
		}
	}
	if ctx.Err() != nil {
		rep.Interrupted = true
	}
	return rep
}

// runJob executes one job in its own context, converting an error or
// a panic — injected faults, checksum mismatches, harness bugs — into
// a structured Failure instead of killing the pool.
func runJob(ctx context.Context, specID string, jb Job, spec, idx int, s *sim.Sim, full bool) (res jobResult) {
	res = jobResult{spec: spec, idx: idx, start: time.Now()}
	defer func() {
		if p := recover(); p != nil {
			res.val = nil
			res.fail = newFailure(specID, jb.Name, p)
		}
		res.end = time.Now()
	}()
	v, err := jb.Run(ctx, s, full)
	if err != nil {
		res.fail = newFailure(specID, jb.Name, err)
		return res
	}
	res.val = v
	return res
}

// finalize assembles one experiment once its last job has landed.
func finalize(sp Spec, s *specState, full bool) {
	s.done = true
	if !s.start.IsZero() {
		s.wall = s.end.Sub(s.start)
	}
	for _, f := range s.fails {
		if f != nil {
			s.failList = append(s.failList, f)
		}
	}
	completed := len(s.out) - s.skipped - s.failed
	if completed == 0 {
		return // nothing to assemble
	}
	tab, afail := assemble(sp, full, s.out)
	if afail != nil {
		s.failList = append(s.failList, afail)
		return
	}
	if s.failed > 0 {
		tab.Notes = append(tab.Notes, fmt.Sprintf("%d job(s) failed; their rows are omitted", s.failed))
	}
	if s.skipped > 0 {
		tab = interrupted(tab)
	}
	s.table = &tab
}

// assemble runs the spec's Assemble under a recover: a panic there
// (e.g. the interval ablation's checksum cross-check) becomes a
// Failure record, matching the per-job contract.
func assemble(sp Spec, full bool, out []any) (tab Table, fail *Failure) {
	defer func() {
		if p := recover(); p != nil {
			tab, fail = Table{}, newFailure(sp.ID, sp.ID+"/assemble", p)
		}
	}()
	return sp.Assemble(full, out), nil
}
