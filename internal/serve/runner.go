package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ccl/internal/bench"
	"ccl/internal/cclerr"
	"ccl/internal/faults"
	"ccl/internal/profile"
	"ccl/internal/sim"
	"ccl/internal/trace"
)

// Event is one NDJSON line of a job stream. The event field selects
// which of the optional payloads is present:
//
//   - "accepted":   tenant, degraded
//   - "experiment": id, jobs, failed, skipped, done, total
//   - "profile":    id ("experiment/workload"), profile — only when
//     the spec asked for profiles; always precedes the result
//   - "result":     result
//   - "error":      error, class (the stream's terminal failure)
//
// Every field is deterministic for a fixed spec: no wall times, no
// ids minted per connection — that is what lets the load test diff
// completed streams byte-for-byte against a reference run.
type Event struct {
	Event    string  `json:"event"`
	Tenant   string  `json:"tenant,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	ID       string  `json:"id,omitempty"`
	Jobs     int     `json:"jobs,omitempty"`
	Failed   int     `json:"failed,omitempty"`
	Skipped  int     `json:"skipped,omitempty"`
	Done     int     `json:"done,omitempty"`
	Total    int     `json:"total,omitempty"`
	Error    string  `json:"error,omitempty"`
	Class    string  `json:"class,omitempty"`
	Result   *Result `json:"result,omitempty"`
	// Profile is a "profile" event's payload: one workload's
	// ccl-profile/v1 report (the document carries its own schema
	// field), streamed when the spec set profile: true.
	Profile *profile.Report `json:"profile,omitempty"`
}

// Result is the deterministic payload of a completed request: the
// assembled report with its wall times zeroed, plus whether the
// request was degraded. Identical specs yield byte-identical
// marshaled Results at any server concurrency.
type Result struct {
	Schema   string       `json:"schema"`
	Tenant   string       `json:"tenant"`
	Degraded bool         `json:"degraded,omitempty"`
	Report   bench.Report `json:"report"`
}

// Smoke returns the reduced-sweep "smoke" variant of sp the server
// degrades to under load: at most maxJobs of the experiment's jobs
// run, the rest are omitted as if skipped, and the assembled table is
// flagged. The transformation is pure — the load test runs it on the
// reference side to reproduce a degraded result exactly.
func Smoke(sp bench.Spec, maxJobs int) bench.Spec {
	if maxJobs < 1 {
		maxJobs = 1
	}
	inner := sp
	sp.Jobs = func(full bool) []bench.Job {
		js := inner.Jobs(full)
		if len(js) > maxJobs {
			js = js[:maxJobs]
		}
		return js
	}
	sp.Assemble = func(full bool, out []any) bench.Table {
		all := inner.Jobs(full)
		padded := make([]any, len(all))
		copy(padded, out)
		tab := inner.Assemble(full, padded)
		if len(out) < len(all) {
			tab.Notes = append(tab.Notes, fmt.Sprintf(
				"degraded: smoke variant ran %d of %d jobs", len(out), len(all)))
		}
		return tab
	}
	return sp
}

// uploadReplayID names the synthetic experiment an uploaded trace
// runs as.
const uploadReplayID = "upload-replay"

// traceSpec wraps an uploaded trace as a one-job experiment: replay
// it through a fresh hierarchy built from the trace's own geometry
// and report the cycle/miss fingerprint.
func traceSpec(tr *trace.Trace) bench.Spec {
	return bench.Spec{
		ID:   uploadReplayID,
		Desc: "replay of the uploaded binary trace",
		Jobs: func(full bool) []bench.Job {
			return []bench.Job{{
				Name: uploadReplayID + "/replay",
				Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
					h, cycles, err := trace.Replay(*tr)
					if err != nil {
						return nil, err
					}
					st := h.Stats()
					last := len(st.Levels) - 1
					return []string{
						fmt.Sprintf("%d", len(tr.Records)),
						fmt.Sprintf("%d", cycles),
						fmt.Sprintf("%d", st.Levels[last].Misses),
					}, nil
				},
			}}
		},
		Assemble: func(full bool, out []any) bench.Table {
			tab := bench.Table{
				ID:     uploadReplayID,
				Title:  "Uploaded trace replay fingerprint",
				Header: []string{"records", "cycles", "LL misses"},
			}
			if row, ok := out[0].([]string); ok {
				tab.Rows = append(tab.Rows, row)
			}
			return tab
		},
	}
}

// benchSpecs expands a request into the bench specs it runs,
// applying the smoke transformation when degraded.
func benchSpecs(req *Request, degraded bool, smokeJobs int) []bench.Spec {
	var specs []bench.Spec
	for _, id := range req.Spec.Experiments {
		sp, ok := bench.Lookup(id)
		if !ok {
			// ParseSpec validated the ids; an unknown one here means
			// the registry changed under a running server.
			panic("serve: experiment vanished from registry: " + id)
		}
		specs = append(specs, sp)
	}
	if req.Trace != nil {
		specs = append(specs, traceSpec(req.Trace))
	}
	if degraded {
		for i := range specs {
			specs[i] = Smoke(specs[i], smokeJobs)
		}
	}
	return specs
}

// runOptions carries the server-side knobs runRequest needs.
type runOptions struct {
	smokeJobs int
	// defaultBudget is the tenant's default per-request budget, used
	// when the spec asks for none; 0 means unbudgeted.
	defaultBudget int64
}

// runRequest executes one admitted request deterministically: one
// strictly serial bench run, every job in a fresh per-tenant run
// context sharing the request's fault injector and memory budget. It
// emits the full event stream through emit and returns a typed error
// only when the stream itself died (emit failed) or the context
// expired before the run started; recorded job failures are not
// errors — they are payload.
//
// Determinism argument: jobs run serially (Parallel 1), so the
// per-request injector sees one deterministic sequence of Check calls
// and the budget one deterministic sequence of charges; no event
// carries a wall time. Server concurrency parallelizes across
// requests, never within one.
func runRequest(ctx context.Context, req *Request, degraded bool, inj *faults.Injector, opt runOptions, emit func(Event) error) error {
	if err := emit(Event{Event: "accepted", Tenant: req.Spec.Tenant, Degraded: degraded}); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return emitTerminal(emit, err)
	}
	full := req.Spec.Full && !degraded
	budgetBytes := req.Spec.BudgetBytes
	if budgetBytes == 0 {
		budgetBytes = opt.defaultBudget
	}
	var budget *sim.Budget
	if budgetBytes > 0 {
		budget = sim.NewBudget(budgetBytes)
	}
	var emitErr error
	rep := bench.Run(ctx, benchSpecs(req, degraded, opt.smokeJobs), bench.Options{
		Full:     full,
		Parallel: 1, // serial within a request: the determinism invariant
		NewSim: func() *sim.Sim {
			s := sim.New()
			inj.ArmSim(s)
			if budget != nil {
				s.SetBudget(budget)
			}
			return s
		},
		OnProgress: func(p bench.Progress) {
			if emitErr != nil {
				return
			}
			emitErr = emit(Event{
				Event: "experiment", ID: p.ID,
				Jobs: p.Jobs, Failed: p.Failed, Skipped: p.Skipped,
				Done: p.Done, Total: p.Total,
			})
		},
	})
	if emitErr != nil {
		// The stream died mid-run; record it in the report.
		rep.Failures = append(rep.Failures, bench.Failure{
			Experiment: "serve", Job: "serve/stream",
			Error: emitErr.Error(), Class: cclerr.Class(emitErr),
		})
	}
	if ctx.Err() != nil {
		// The deadline cut the run short: flush what we have as a
		// partial result.
		rep.Interrupted = true
	}
	rep = bench.StripTimings(rep)
	if req.Spec.Profile {
		if err := emitProfiles(emit, rep); err != nil {
			return err
		}
	}
	return emit(Event{Event: "result", Result: &Result{
		Schema:   SpecSchema,
		Tenant:   req.Spec.Tenant,
		Degraded: degraded,
		Report:   rep,
	}})
}

// emitProfiles streams every ccl-profile/v1 report the run produced as
// its own event, experiments in report order and workloads in sorted
// order — a deterministic sequence, so profiled streams diff cleanly
// against reference runs like unprofiled ones do.
func emitProfiles(emit func(Event) error, rep bench.Report) error {
	for _, tab := range rep.Experiments {
		keys := make([]string, 0, len(tab.Profiles))
		for k := range tab.Profiles {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := tab.Profiles[k]
			if err := emit(Event{Event: "profile", ID: tab.ID + "/" + k, Profile: &p}); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitTerminal converts a request-level failure into the stream's
// final event; the emit error (a dead client) wins over the payload
// error if both occur.
func emitTerminal(emit func(Event) error, err error) error {
	class := cclerr.Class(err)
	if errors.Is(err, context.DeadlineExceeded) && class == "" {
		class = "deadline-exceeded"
	}
	if eerr := emit(Event{Event: "error", Error: err.Error(), Class: class}); eerr != nil {
		return eerr
	}
	return err
}
