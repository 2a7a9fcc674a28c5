package bench

import (
	"context"

	"ccl/internal/sim"
)

// Job is one independently runnable unit of an experiment: a tree
// configuration of Fig5, one Olden benchmark/variant cell of Fig7,
// one ablation point, one oracle geometry. A job receives a fresh,
// private run context, builds every machine and structure it needs
// through it from fixed seeds, and shares no mutable state with any
// other job — which is what makes the whole suite safe to execute on
// a worker pool with byte-identical results at any parallelism.
type Job struct {
	// Name identifies the job in failure records and progress
	// output, conventionally "<experiment>/<cell>".
	Name string
	// Run computes the job's payload. The payload type is private to
	// the experiment: Assemble is the only consumer. An error (or a
	// panic, which the pool recovers) becomes a structured Failure
	// record instead of killing the run.
	//
	// A job runs at the scale of the Jobs call that built it, and no
	// Run reads its full argument. The parameter stays only because
	// perfbench calls j.Run(ctx, sim.New(), false) on a quick job.
	Run func(ctx context.Context, s *sim.Sim, full bool) (any, error)
}

// Spec declares one experiment: its identity, how it decomposes into
// independent jobs, and how the job payloads assemble into the
// experiment's table.
type Spec struct {
	ID   string
	Desc string
	// Jobs lists the experiment's units at the given scale. The
	// decomposition must be deterministic: same full flag, same jobs.
	Jobs func(full bool) []Job
	// Assemble builds the table from job payloads, one entry per job
	// in job order. An entry is nil when its job failed or was
	// skipped by cancellation; Assemble must tolerate nil entries by
	// omitting the affected rows (the runner marks such tables).
	Assemble func(full bool, out []any) Table
}

// Registry returns every experiment in paper order — the canonical
// order the runner assembles results in, whatever order jobs finish.
func Registry() []Spec {
	return []Spec{
		table1Spec(),
		fig5Spec(),
		fig6Spec(),
		table2Spec(),
		fig7Spec(),
		table3Spec(),
		controlSpec(),
		memovhSpec(),
		fig10Spec(),
		metricsSpec(),
		ablationColorSpec(),
		ablationBlockSpec(),
		ablationIntervalSpec(),
		oracleSpec(),
		replaySpec(),
		fieldprofSpec(),
		strategiesSpec(),
		multicoreSpec(),
		servingSpec(),
	}
}

// Lookup returns the registered experiment with the given id.
func Lookup(id string) (Spec, bool) {
	for _, sp := range Registry() {
		if sp.ID == id {
			return sp, true
		}
	}
	return Spec{}, false
}

// IDs returns the registered experiment ids in registry order.
func IDs() []string {
	specs := Registry()
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = sp.ID
	}
	return ids
}

// singleTableSpec wraps a static table as a one-job spec.
func singleTableSpec(id, desc string, table func() Table) Spec {
	return Spec{
		ID:   id,
		Desc: desc,
		Jobs: func(bool) []Job {
			return []Job{{Name: id, Run: func(context.Context, *sim.Sim, bool) (any, error) {
				return table(), nil
			}}}
		},
		Assemble: func(full bool, out []any) Table {
			if t, ok := out[0].(Table); ok {
				return t
			}
			return Table{ID: id, Title: desc}
		},
	}
}
