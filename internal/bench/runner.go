package bench

import (
	"errors"
	"fmt"

	"ccl/internal/cclerr"
	"ccl/internal/layout"
	"ccl/internal/machine"
)

// Failure is one experiment's structured failure record in the
// ccl-bench JSON report: which experiment died, what it said, and the
// cclerr taxonomy class when the panic value was a typed error. A
// report with failures still validates against the schema — robust
// sweeps record what broke instead of dying with it.
type Failure struct {
	Experiment string `json:"experiment"`
	// Job names the job that failed ("fig7/health/Cl+Col"), or
	// "<experiment>/assemble" when the failure came from assembling
	// the experiment's table.
	Job   string `json:"job,omitempty"`
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
	// Injected marks failures caused by the fault injector
	// (cclerr.ErrFaultInjected anywhere in the chain). Class alone
	// cannot carry this: an injected arena-grow fault classifies as
	// the operational failure it simulates ("out-of-memory"), by
	// design. The marker is for reporting only.
	Injected bool `json:"injected,omitempty"`
}

// newFailure builds a Failure from a job's error or recovered panic
// value.
func newFailure(experiment, job string, v any) *Failure {
	f := &Failure{Experiment: experiment, Job: job}
	if err, ok := v.(error); ok {
		f.Error = err.Error()
		f.Class = cclerr.Class(err)
		f.Injected = errors.Is(err, cclerr.ErrFaultInjected)
	} else {
		f.Error = fmt.Sprint(v)
	}
	return f
}

// interruptedNote marks a table whose remaining rows were skipped
// because the run's context was cancelled.
const interruptedNote = "interrupted: remaining rows omitted"

// interrupted stamps a partially-built table as cut short.
func interrupted(t Table) Table {
	t.Notes = append(t.Notes, interruptedNote)
	return t
}

// must adapts the library's checked constructors to the experiment
// code's fail-fast policy (DESIGN.md §7): experiments size their
// workloads within the arena by construction, so a failure here is a
// harness bug or an injected fault, and Run's per-job recover turns
// the panic into a structured Failure record.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// check is must for calls that only return an error.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// lastLevelRegion is a placement region on m's last-level cache,
// colored when colorFrac > 0: what ccmorph and split place into.
func lastLevelRegion(m *machine.Machine, colorFrac float64) *layout.Region {
	return must(layout.NewRegion(m.Arena, layout.FromLevel(m.Cache.LastLevel()), colorFrac))
}
