// Package serve is the simulation server: a long-running HTTP daemon
// that accepts workload specs, runs them as jobs on a sharded fleet
// of per-tenant run contexts (internal/sim), and streams progress and
// results as NDJSON. Robustness is the point of the package: every
// input is validated with hard caps, every rejection is a typed
// cclerr, per-tenant admission control bounds what one client can do
// to another, requests carry deadlines and simulated-memory budgets,
// every request runs exactly once and its failures are typed records
// in the result, overload degrades to reduced-sweep "smoke" runs
// instead of failing, panics are isolated per request, and shutdown
// drains cleanly. Identical specs produce a byte-identical result at
// any concurrency — the load-test driver (LoadTest, cclserve
// -selftest) proves it by diffing every completed result against a
// serial reference run. See DESIGN.md §12.
package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"ccl/internal/bench"
	"ccl/internal/cclerr"
	"ccl/internal/faults"
	"ccl/internal/trace"
)

// SpecSchema identifies the request format; a spec carrying any other
// schema string is rejected so a future v2 can change shape safely.
const SpecSchema = "ccl-serve/v1"

// Hard input caps. They are deliberately not configurable per
// request: a hostile spec must not be able to negotiate its own
// limits.
const (
	// MaxSpecBytes bounds the request body.
	MaxSpecBytes = 4 << 20
	// MaxExperiments bounds how many experiment ids one spec may name.
	MaxExperiments = 32
	// MaxTraceBytes bounds the decoded uploaded trace.
	MaxTraceBytes = 2 << 20
	// MaxTraceRecords bounds the uploaded trace's record count; the
	// codec's own ceiling is higher, sized for offline fixtures, not
	// for something a stranger uploads.
	MaxTraceRecords = 1 << 20
	// MaxTraceWork bounds the uploaded trace's work: the blocks its
	// records touch at its smallest block size, one simulated access
	// each (trace.Encoded.Work), about half a second of replay at
	// ~30 ns an access. Each record is already capped at
	// trace.MaxRecordSize bytes; this caps their sum.
	MaxTraceWork = 1 << 24
	// MaxTenantLen bounds the tenant name.
	MaxTenantLen = 64
	// MaxDeadlineMS bounds the per-request deadline a spec may ask
	// for (10 minutes).
	MaxDeadlineMS = 10 * 60 * 1000
	// MaxBudgetBytes bounds the per-request simulated-memory budget a
	// spec may ask for (4 GiB, the arena's own address-space limit).
	MaxBudgetBytes = 1 << 32
	// MaxFaults bounds the injected-fault schedule entries per spec.
	MaxFaults = 16
)

// Spec is the wire format of one job submission. Everything beyond
// schema and tenant is optional; Experiments and TraceB64 may be
// combined, but at least one of them must be present.
type Spec struct {
	Schema string `json:"schema"`
	// Tenant names the submitting tenant for admission control;
	// lowercase alphanumerics plus '-' and '_'.
	Tenant string `json:"tenant"`
	// Experiments lists bench registry ids to run ("table1", ...).
	Experiments []string `json:"experiments,omitempty"`
	// Full selects paper-scale workloads. Degraded runs ignore it.
	Full bool `json:"full,omitempty"`
	// Seed has no effect on the result; it is accepted for
	// ccl-serve/v1 compatibility.
	Seed int64 `json:"seed,omitempty"`
	// Fault is a comma-separated injected-fault schedule,
	// "point[:n]" per entry (e.g. "serve-stream:2,arena-grow:3");
	// admitted points are the serve-* points and arena-grow. Injected
	// failures land in the result as typed failure records, like
	// real ones.
	Fault string `json:"fault,omitempty"`
	// DeadlineMS bounds the request's wall time; 0 selects the
	// server's default deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// BudgetBytes bounds the request's total simulated-memory growth
	// across every job it fans out into; 0 selects the tenant's
	// default budget.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// TraceB64 is a base64 (std encoding) binary trace
	// (internal/trace format) to replay as an extra workload.
	TraceB64 string `json:"trace_b64,omitempty"`
	// Profile asks the stream for first-class profiler output: every
	// ccl-profile/v1 report the run produced (the fieldprof
	// experiment's per-workload field profiles) is emitted as its own
	// "profile" event before the result. Experiments that attach no
	// profiler simply emit none.
	Profile bool `json:"profile,omitempty"`
}

// Request is a fully validated submission: the spec, its checked
// trace upload (nil when none was uploaded), and its parsed fault
// schedule. The upload stays in its encoded form until its job
// replays it.
type Request struct {
	Spec   Spec
	Trace  *trace.Encoded
	Faults faults.Schedule
}

// tenantNameOK reports whether the tenant name is well-formed.
func tenantNameOK(name string) bool {
	if name == "" || len(name) > MaxTenantLen {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// ParseSpec validates a raw request body into a Request. Every
// failure is a typed cclerr — ErrInvalidArg for malformed or hostile
// specs, ErrCorruptTrace for an undecodable upload — and no input,
// however malformed, may panic (FuzzWorkloadSpec holds it to that).
func ParseSpec(data []byte) (*Request, error) {
	if len(data) > MaxSpecBytes {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: spec of %d bytes exceeds the %d-byte cap", len(data), MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg, "serve: malformed spec: %v", err)
	}
	if dec.More() {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg, "serve: trailing data after spec")
	}
	if sp.Schema != SpecSchema {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: schema %q, want %q", sp.Schema, SpecSchema)
	}
	if !tenantNameOK(sp.Tenant) {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: bad tenant name %q (want 1-%d of [a-z0-9_-])", sp.Tenant, MaxTenantLen)
	}
	if len(sp.Experiments) == 0 && sp.TraceB64 == "" {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: empty spec: name experiments or upload a trace")
	}
	if len(sp.Experiments) > MaxExperiments {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: %d experiments exceed the cap of %d", len(sp.Experiments), MaxExperiments)
	}
	for _, id := range sp.Experiments {
		if _, ok := bench.Lookup(id); !ok {
			return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
				"serve: unknown experiment %q (available: %v)", id, bench.IDs())
		}
	}
	if sp.DeadlineMS < 0 || sp.DeadlineMS > MaxDeadlineMS {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: deadline_ms %d outside [0, %d]", sp.DeadlineMS, MaxDeadlineMS)
	}
	if sp.BudgetBytes < 0 || sp.BudgetBytes > MaxBudgetBytes {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: budget_bytes %d outside [0, %d]", sp.BudgetBytes, MaxBudgetBytes)
	}
	// Count entries before parsing, so an oversized schedule is
	// rejected without being expanded.
	if n := strings.Count(sp.Fault, ",") + 1; sp.Fault != "" && n > MaxFaults {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: fault schedule has %d entries (max %d)", n, MaxFaults)
	}
	// Servable points: the serve-layer points plus arena-grow, the one
	// structure-level point with a run-context seam.
	fs, err := faults.ParseSchedule(sp.Fault, append(faults.ServePoints(), faults.ArenaGrow)...)
	if err != nil {
		return nil, err
	}
	req := &Request{Spec: sp, Faults: fs}
	if sp.TraceB64 != "" {
		if enc := base64.StdEncoding.EncodedLen(MaxTraceBytes); len(sp.TraceB64) > enc {
			return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
				"serve: trace upload of %d base64 bytes exceeds the cap", len(sp.TraceB64))
		}
		raw, err := base64.StdEncoding.DecodeString(sp.TraceB64)
		if err != nil {
			return nil, cclerr.Errorf(cclerr.ErrInvalidArg, "serve: trace_b64: %v", err)
		}
		tr, err := checkUpload(raw)
		if err != nil {
			return nil, err
		}
		req.Trace = tr
	}
	return req, nil
}

// errOverWork marks an upload whose work exceeds MaxTraceWork; the
// server answers it with 413.
var errOverWork = errors.New("work over the upload cap")

// checkUpload validates and bounds an uploaded binary trace in one
// pass over its bytes, before the request is admitted.
func checkUpload(raw []byte) (*trace.Encoded, error) {
	if len(raw) > MaxTraceBytes {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: trace of %d bytes exceeds the %d-byte cap", len(raw), MaxTraceBytes)
	}
	tr, err := trace.Check(raw)
	if err != nil {
		return nil, fmt.Errorf("serve: uploaded trace: %w", err)
	}
	// A replay runs every record on one hierarchy, so a multicore
	// trace would lose its cores' private caches.
	if tr.Multicore() {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: trace is a multicore (version-2) capture; uploads replay on one core")
	}
	if tr.Len() > MaxTraceRecords {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: trace of %d records exceeds the cap of %d", tr.Len(), MaxTraceRecords)
	}
	if tr.Work() > MaxTraceWork {
		return nil, fmt.Errorf("serve: trace touches %d blocks, over the cap of %d: %w: %w",
			tr.Work(), MaxTraceWork, errOverWork, cclerr.ErrInvalidArg)
	}
	return &tr, nil
}

// Injector builds the request's fault injector from its schedule.
// Each call returns a fresh injector with identical scheduling, so a
// reference run replays the exact fault sequence the served run saw.
func (r *Request) Injector() *faults.Injector { return r.Faults.Injector() }
