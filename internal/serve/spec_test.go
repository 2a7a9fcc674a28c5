package serve

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/trace"
)

// validSpec returns a minimal well-formed spec body.
func validSpec(t *testing.T, mutate func(*Spec)) []byte {
	t.Helper()
	sp := Spec{Schema: SpecSchema, Tenant: "acme", Experiments: []string{"table1"}}
	if mutate != nil {
		mutate(&sp)
	}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseSpecAccepts(t *testing.T) {
	req, err := ParseSpec(validSpec(t, func(sp *Spec) {
		sp.Seed = 7
		sp.Fault = "serve-stream:2,arena-grow"
		sp.DeadlineMS = 1000
		sp.BudgetBytes = 1 << 20
		sp.Profile = true
	}))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(req.Faults) != 2 || req.Faults[0].N != 2 || req.Faults[1].N != 1 {
		t.Errorf("fault schedule parsed as %+v", req.Faults)
	}
	if !req.Spec.Profile {
		t.Error("profile flag lost in parsing")
	}
	if req.Trace != nil {
		t.Error("no trace uploaded but Trace != nil")
	}
}

// TestParseSpecAcceptsServing pins the serving experiment's id in
// the spec surface: a tenant can request the workload-family race by
// name, alone or alongside other experiments.
func TestParseSpecAcceptsServing(t *testing.T) {
	req, err := ParseSpec(validSpec(t, func(sp *Spec) {
		sp.Experiments = []string{"serving", "table1"}
	}))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(req.Spec.Experiments) != 2 || req.Spec.Experiments[0] != "serving" {
		t.Errorf("experiments parsed as %v", req.Spec.Experiments)
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"not json", []byte("{nope"), cclerr.ErrInvalidArg},
		{"unknown field", []byte(`{"schema":"ccl-serve/v1","tenant":"a","experiments":["table1"],"bogus":1}`), cclerr.ErrInvalidArg},
		{"trailing data", append(validSpec(t, nil), []byte("{}")...), cclerr.ErrInvalidArg},
		{"wrong schema", validSpec(t, func(sp *Spec) { sp.Schema = "ccl-serve/v9" }), cclerr.ErrInvalidArg},
		{"bad tenant", validSpec(t, func(sp *Spec) { sp.Tenant = "Not OK!" }), cclerr.ErrInvalidArg},
		{"empty tenant", validSpec(t, func(sp *Spec) { sp.Tenant = "" }), cclerr.ErrInvalidArg},
		{"long tenant", validSpec(t, func(sp *Spec) { sp.Tenant = strings.Repeat("a", MaxTenantLen+1) }), cclerr.ErrInvalidArg},
		{"no work", validSpec(t, func(sp *Spec) { sp.Experiments = nil }), cclerr.ErrInvalidArg},
		{"unknown experiment", validSpec(t, func(sp *Spec) { sp.Experiments = []string{"tableX"} }), cclerr.ErrInvalidArg},
		{"too many experiments", validSpec(t, func(sp *Spec) {
			sp.Experiments = make([]string, MaxExperiments+1)
			for i := range sp.Experiments {
				sp.Experiments[i] = "table1"
			}
		}), cclerr.ErrInvalidArg},
		{"negative deadline", validSpec(t, func(sp *Spec) { sp.DeadlineMS = -1 }), cclerr.ErrInvalidArg},
		{"huge deadline", validSpec(t, func(sp *Spec) { sp.DeadlineMS = MaxDeadlineMS + 1 }), cclerr.ErrInvalidArg},
		{"huge budget", validSpec(t, func(sp *Spec) { sp.BudgetBytes = MaxBudgetBytes + 1 }), cclerr.ErrInvalidArg},
		{"unservable fault point", validSpec(t, func(sp *Spec) { sp.Fault = "trace-decode" }), cclerr.ErrInvalidArg},
		{"bad fault count", validSpec(t, func(sp *Spec) { sp.Fault = "serve-stream:zero" }), cclerr.ErrInvalidArg},
		{"serve-run point", validSpec(t, func(sp *Spec) { sp.Fault = "serve-run:1" }), cclerr.ErrInvalidArg},
		{"bad base64", validSpec(t, func(sp *Spec) { sp.TraceB64 = "!!!" }), cclerr.ErrInvalidArg},
		{"corrupt trace", validSpec(t, func(sp *Spec) {
			sp.TraceB64 = base64.StdEncoding.EncodeToString([]byte("not a trace"))
		}), cclerr.ErrCorruptTrace},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.body)
			if err == nil {
				t.Fatal("want rejection, got nil error")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v, want %v", err, tc.want)
			}
			if cclerr.Class(err) == "" {
				t.Errorf("rejection %v has no class", err)
			}
		})
	}
}

// TestParseSpecCaps pins two hard caps at their boundary: a body one
// byte over MaxSpecBytes and a fault schedule of MaxFaults+1 entries
// are typed rejections, while MaxFaults entries are accepted.
func TestParseSpecCaps(t *testing.T) {
	if _, err := ParseSpec(make([]byte, MaxSpecBytes+1)); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("oversized body: err=%v, want ErrInvalidArg", err)
	}
	schedule := func(n int) []byte {
		return validSpec(t, func(sp *Spec) {
			sp.Fault = strings.TrimSuffix(strings.Repeat("arena-grow,", n), ",")
		})
	}
	req, err := ParseSpec(schedule(MaxFaults))
	if err != nil || len(req.Faults) != MaxFaults {
		t.Fatalf("%d entries: err=%v, want accepted", MaxFaults, err)
	}
	if _, err := ParseSpec(schedule(MaxFaults + 1)); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("%d entries: err=%v, want ErrInvalidArg", MaxFaults+1, err)
	}
}

func TestParseSpecTraceUpload(t *testing.T) {
	tr := trace.Trace{
		Config: cache.PaperHierarchy(),
		Records: []trace.Record{
			{Addr: 0x1000, Size: 8},
			{Addr: 0x2000, Size: 8},
		},
	}
	raw := tr.Encode()
	req, err := ParseSpec(validSpec(t, func(sp *Spec) {
		sp.Experiments = nil
		sp.TraceB64 = base64.StdEncoding.EncodeToString(raw)
	}))
	if err != nil {
		t.Fatalf("ParseSpec with trace: %v", err)
	}
	if req.Trace == nil || req.Trace.Len() != 2 {
		t.Fatalf("trace not checked: %+v", req.Trace)
	}
}

func TestInjectorFreshAndIdentical(t *testing.T) {
	req, err := ParseSpec(validSpec(t, func(sp *Spec) { sp.Fault = "serve-stream:2" }))
	if err != nil {
		t.Fatal(err)
	}
	a, b := req.Injector(), req.Injector()
	if a == b {
		t.Fatal("Injector() returned the same instance twice")
	}
	// Both fire at exactly the second check.
	for i := 1; i <= 3; i++ {
		ea, eb := a.Check("serve-stream"), b.Check("serve-stream")
		if (ea == nil) != (eb == nil) {
			t.Fatalf("check %d diverged: %v vs %v", i, ea, eb)
		}
		if (ea != nil) != (i == 2) {
			t.Errorf("check %d: err=%v, want fire only at 2", i, ea)
		}
	}
}

func TestSmokeIsPureAndFlagged(t *testing.T) {
	req, err := ParseSpec(validSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	specs := benchSpecs(req, true, 1)
	if len(specs) != 1 {
		t.Fatalf("got %d specs", len(specs))
	}
	jobs := specs[0].Jobs(false)
	if len(jobs) != 1 {
		t.Errorf("smoke variant has %d jobs, want 1", len(jobs))
	}
	// Calling twice must agree: the transform is pure.
	if again := specs[0].Jobs(false); len(again) != len(jobs) {
		t.Errorf("second Jobs() call returned %d jobs", len(again))
	}
}
