package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"ccl/internal/cclerr"
)

// LoadTestConfig shapes the self-test drive.
type LoadTestConfig struct {
	// Tenants × Concurrent requests are fired at once. Defaults 8 × 32.
	Tenants    int
	Concurrent int
	// DrainAfter fires a drain this long into a second request wave,
	// proving SIGTERM-under-load behaviour. Zero skips the phase.
	DrainAfter time.Duration
	// DrainDeadline bounds that drain. Default 5 s.
	DrainDeadline time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// LoadTestResult summarizes a drive. The test is considered passed
// when Failed() returns nil.
type LoadTestResult struct {
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Degraded  int `json:"degraded"`
	Rejected  int `json:"rejected"`
	Aborted   int `json:"aborted"` // stream ended without a result (injected stream faults, deadlines)

	Mismatched        int      `json:"mismatched"`         // completed results that diverged from their reference
	UntypedRejections int      `json:"untyped_rejections"` // rejections without a cclerr class
	UntypedFailures   int      `json:"untyped_failures"`   // in-stream failure records without a class
	DrainWallMS       int64    `json:"drain_wall_ms"`
	DrainTimedOut     bool     `json:"drain_timed_out"`
	Errors            []string `json:"errors,omitempty"` // first few diagnostics
}

// Failed returns nil when the drive met every acceptance criterion.
func (r LoadTestResult) Failed() error {
	switch {
	case r.Mismatched > 0:
		return fmt.Errorf("loadtest: %d completed result(s) diverged from the serial reference", r.Mismatched)
	case r.UntypedRejections > 0:
		return fmt.Errorf("loadtest: %d rejection(s) carried no cclerr class", r.UntypedRejections)
	case r.UntypedFailures > 0:
		return fmt.Errorf("loadtest: %d in-stream failure(s) carried no cclerr class", r.UntypedFailures)
	case r.Completed == 0:
		return fmt.Errorf("loadtest: nothing completed")
	case r.DrainTimedOut:
		return fmt.Errorf("loadtest: drain exceeded its deadline (%d ms)", r.DrainWallMS)
	}
	return nil
}

// loadSpec builds the deterministic spec for request i of tenant t:
// the workload menu, seeds, budgets, and fault schedules all derive
// from (t, i), so a failing request names its own reproduction.
func loadSpec(t, i int, faultsOn bool) Spec {
	menu := [][]string{
		{"table1"},
		{"table2"},
		{"control"},
		{"table1", "table2"},
	}
	sp := Spec{
		Schema:      SpecSchema,
		Tenant:      fmt.Sprintf("tenant-%02d", t),
		Experiments: menu[(t+i)%len(menu)],
		Seed:        int64(t)*1000 + int64(i),
		DeadlineMS:  20_000,
	}
	if faultsOn {
		// Rotate through schedules covering every serve-* point, the
		// arena-grow run seam, and tiny budgets.
		switch i % 8 {
		case 1:
			sp.Fault = "arena-grow:2" // a later workload growth fails
		case 2:
			sp.Fault = "serve-admit:1" // typed 503 at the door
		case 3:
			sp.Fault = "serve-stream:2" // stream dies mid-flight
		case 4:
			sp.Fault = "arena-grow:1" // first workload growth fails
		case 5:
			sp.Fault = "arena-grow:1,arena-grow:2,arena-grow:3" // consecutive growths fail
		case 6:
			sp.BudgetBytes = 4096 // too small: typed budget-exceeded failures
		case 7:
			sp.Fault = "serve-stream:3,arena-grow:3"
		}
	}
	return sp
}

// outcome is one drive request's classification.
type outcome struct {
	spec     Spec
	status   int
	rejected bool
	classOK  bool
	result   *Result
	resultJS []byte // the result event's exact bytes, for the diff
	err      error
}

// LoadTest hammers an in-process server over real HTTP with
// cfg.Tenants × cfg.Concurrent concurrent requests under a fault
// schedule arming every serve-* point, then diffs every completed
// result byte-for-byte against a serial in-process reference run,
// checks every rejection and failure record is typed, and finally
// proves a drain under load completes within its deadline with
// partial results flushed. It is the acceptance gate behind
// `cclserve -selftest`.
func LoadTest(ctx context.Context, cfg LoadTestConfig) (LoadTestResult, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 8
	}
	if cfg.Concurrent <= 0 {
		cfg.Concurrent = 32
	}
	if cfg.DrainDeadline <= 0 {
		cfg.DrainDeadline = 5 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// A deliberately small fleet so queues, degradation, and
	// rejections actually happen at this load; rate limits are
	// per-tenant so the drive sees 429s without starving entirely.
	// tenant-01 carries its own default budget (256 KiB: table1 fits,
	// no table2 or control job does, full or smoke), so the byte-diff
	// also covers named-tenant config resolution.
	drive := TenantConfig{RatePerSec: 200, Burst: 24, MaxActive: 24}
	budgeted := drive
	budgeted.BudgetBytes = 256 << 10
	srvCfg := Config{
		Shards:          4,
		WorkersPerShard: 2,
		QueueDepth:      6,
		DegradeAt:       12,
		SmokeJobs:       1,
		DefaultTenant:   drive,
		Tenants:         map[string]TenantConfig{"tenant-01": budgeted},
	}
	srv := New(srvCfg)
	hs := httptest.NewUnstartedServer(srv.Handler())
	// Tie request contexts to the server's base context so a drain's
	// hard-cancel reaches in-flight runs, exactly as cclserve wires it.
	hs.Config.BaseContext = func(net.Listener) context.Context { return srv.BaseContext() }
	hs.Start()
	defer hs.Close()
	base := hs.URL

	var res LoadTestResult
	addErr := func(format string, args ...any) {
		if len(res.Errors) < 16 {
			res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
		}
	}

	total := cfg.Tenants * cfg.Concurrent
	logf("loadtest: firing %d tenants x %d requests (%d total) under a rotating fault schedule",
		cfg.Tenants, cfg.Concurrent, total)
	outcomes := make([]outcome, total)
	var wg sync.WaitGroup
	for t := 0; t < cfg.Tenants; t++ {
		for i := 0; i < cfg.Concurrent; i++ {
			t, i := t, i
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := loadSpec(t, i, true)
				outcomes[t*cfg.Concurrent+i] = submit(ctx, base, sp)
			}()
		}
	}
	wg.Wait()

	res.Requests = total
	for k := range outcomes {
		o := &outcomes[k]
		if o.err != nil {
			res.Aborted++
			addErr("request %s/%d: %v", o.spec.Tenant, o.spec.Seed, o.err)
			continue
		}
		if o.rejected {
			res.Rejected++
			if !o.classOK {
				res.UntypedRejections++
				addErr("rejection %s seed=%d status=%d lacked a class", o.spec.Tenant, o.spec.Seed, o.status)
			}
			continue
		}
		if o.result == nil {
			res.Aborted++ // stream fault or deadline cut it short
			continue
		}
		res.Completed++
		if o.result.Degraded {
			res.Degraded++
		}
		for _, f := range o.result.Report.Failures {
			if f.Class == "" {
				res.UntypedFailures++
				addErr("untyped failure in %s seed=%d: %s", o.spec.Tenant, o.spec.Seed, f.Error)
			}
		}
		// The determinism gate: re-run the spec serially, in-process,
		// with a fresh identically-scheduled injector, and demand the
		// result event byte-for-byte.
		refJS, err := ReferenceResult(context.Background(), o.spec, o.result.Degraded, srvCfg)
		if err != nil {
			res.Mismatched++
			addErr("reference run for %s seed=%d failed: %v", o.spec.Tenant, o.spec.Seed, err)
			continue
		}
		if !bytes.Equal(o.resultJS, refJS) {
			res.Mismatched++
			addErr("result diverged for %s seed=%d:\n served: %s\n ref:    %s",
				o.spec.Tenant, o.spec.Seed, clip(o.resultJS), clip(refJS))
		}
	}
	logf("loadtest: %d completed (%d degraded), %d rejected, %d aborted, %d mismatched",
		res.Completed, res.Degraded, res.Rejected, res.Aborted, res.Mismatched)

	// Phase 2: drain under load. Fire a second wave, then drain
	// mid-flight; the drain must finish inside its deadline either
	// cleanly or by cancelling (whose partial results flush as
	// interrupted reports downstream).
	if cfg.DrainAfter > 0 {
		var wave sync.WaitGroup
		stillOK := 0
		var mu sync.Mutex
		for t := 0; t < cfg.Tenants; t++ {
			t := t
			wave.Add(1)
			go func() {
				defer wave.Done()
				o := submit(ctx, base, loadSpec(t, 1000, false))
				mu.Lock()
				if o.result != nil || o.rejected {
					stillOK++
				}
				mu.Unlock()
			}()
		}
		time.Sleep(cfg.DrainAfter)
		dctx, dcancel := context.WithTimeout(ctx, cfg.DrainDeadline)
		start := time.Now()
		err := srv.Drain(dctx)
		res.DrainWallMS = time.Since(start).Milliseconds()
		dcancel()
		if time.Duration(res.DrainWallMS)*time.Millisecond > cfg.DrainDeadline+time.Second {
			res.DrainTimedOut = true
		}
		wave.Wait()
		logf("loadtest: drain done in %d ms (err=%v), wave outcomes ok=%d/%d",
			res.DrainWallMS, err, stillOK, cfg.Tenants)
		// After drain, admission must refuse with a typed 503.
		o := submit(ctx, base, loadSpec(0, 2000, false))
		if !o.rejected || o.status != http.StatusServiceUnavailable || !o.classOK {
			res.UntypedRejections++
			addErr("post-drain submission not rejected with a typed 503: status=%d rejected=%v", o.status, o.rejected)
		}
	}
	return res, nil
}

// clip bounds a diagnostic payload.
func clip(b []byte) string {
	s := string(b)
	if len(s) > 400 {
		s = s[:400] + "..."
	}
	return s
}

// submit POSTs one spec and consumes its NDJSON stream.
func submit(ctx context.Context, base string, sp Spec) outcome {
	o := outcome{spec: sp}
	body, err := json.Marshal(sp)
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		o.rejected = true
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Class != "" {
			o.classOK = true
		}
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), MaxSpecBytes)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			o.err = fmt.Errorf("bad stream line %q: %w", clip([]byte(line)), err)
			return o
		}
		if ev.Event == "result" && ev.Result != nil {
			o.result = ev.Result
			o.resultJS = []byte(line)
		}
	}
	if err := sc.Err(); err != nil {
		o.err = err
	}
	return o
}

// ReferenceResult runs sp serially in-process — no HTTP, no
// admission, no concurrency — with a fresh injector on the identical
// schedule and the tenant's budget as cfg resolves it, and returns
// the bytes of the result event line a server must produce for it.
// degraded selects the smoke variant, mirroring the admission-time
// decision the served run recorded.
func ReferenceResult(ctx context.Context, sp Spec, degraded bool, cfg Config) ([]byte, error) {
	cfg = cfg.withDefaults()
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	req, err := ParseSpec(body)
	if err != nil {
		return nil, err
	}
	inj := req.Injector()
	var resultLine []byte
	emit := streamEmit(inj, func(ev Event) error {
		if ev.Event == "result" {
			b, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			resultLine = b
		}
		return nil
	})
	err = runRequest(ctx, req, degraded, inj, runOptions{
		smokeJobs:     cfg.SmokeJobs,
		defaultBudget: cfg.tenant(sp.Tenant).BudgetBytes,
	}, emit)
	if err != nil {
		return nil, err
	}
	if resultLine == nil {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg, "reference run emitted no result")
	}
	return resultLine, nil
}
