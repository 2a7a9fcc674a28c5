package serve

import (
	"context"
	"testing"
	"time"
)

// TestLoadTestResultFailed checks the gate itself: each acceptance
// criterion on its own fails a drive that met all the others.
func TestLoadTestResultFailed(t *testing.T) {
	pass := LoadTestResult{Completed: 1}
	if err := pass.Failed(); err != nil {
		t.Fatalf("passing drive reported %v", err)
	}
	for name, mutate := range map[string]func(*LoadTestResult){
		"mismatched":         func(r *LoadTestResult) { r.Mismatched = 1 },
		"untyped rejection":  func(r *LoadTestResult) { r.UntypedRejections = 1 },
		"untyped failure":    func(r *LoadTestResult) { r.UntypedFailures = 1 },
		"nothing completed":  func(r *LoadTestResult) { r.Completed = 0 },
		"drain out of bound": func(r *LoadTestResult) { r.DrainTimedOut = true },
	} {
		r := pass
		mutate(&r)
		if r.Failed() == nil {
			t.Errorf("%s: drive passed", name)
		}
	}
}

// TestLoadTest is the acceptance gate: 8 tenants x 32 concurrent
// requests over real HTTP under a fault schedule arming every serve-*
// point plus arena-grow. Zero server crashes, every rejection typed,
// every completed result byte-identical to its serial reference run,
// and a drain under load that finishes inside its deadline.
func TestLoadTest(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := LoadTest(ctx, LoadTestConfig{
		Tenants:       8,
		Concurrent:    32,
		DrainAfter:    20 * time.Millisecond,
		DrainDeadline: 10 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("LoadTest: %v", err)
	}
	t.Logf("loadtest result: %+v", res)
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Error("want admission rejections under 8x32 load against a small fleet, got none")
	}
	if res.Degraded == 0 {
		t.Error("want degraded (smoke) completions under load, got none")
	}
}
