package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
	"ccl/internal/trace"
)

// newTestServer starts an httptest server wired the way cclserve
// wires a real one (BaseContext included).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.BaseContext = func(net.Listener) context.Context { return srv.BaseContext() }
	hs.Start()
	t.Cleanup(hs.Close)
	return srv, hs
}

func postSpec(t *testing.T, url string, sp Spec) *http.Response {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeStream consumes an NDJSON response into its events.
func decodeStream(t *testing.T, resp *http.Response) []Event {
	t.Helper()
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), MaxSpecBytes)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return evs
}

// resultLine returns the raw "result" line of an NDJSON stream.
func resultLine(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	var line []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), MaxSpecBytes)
	for sc.Scan() {
		var ev Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == "result" {
			line = append([]byte(nil), sc.Bytes()...)
		}
	}
	if line == nil {
		t.Fatal("no result line")
	}
	return line
}

func wantRejection(t *testing.T, resp *http.Response, status int) errorBody {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d", resp.StatusCode, status)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("rejection body: %v", err)
	}
	if eb.Class == "" {
		t.Errorf("rejection %q has no class", eb.Error)
	}
	return eb
}

func TestServeHappyPath(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp := postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "acme", Experiments: []string{"control"}, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	evs := decodeStream(t, resp)
	if len(evs) < 2 || evs[0].Event != "accepted" {
		t.Fatalf("events: %+v", evs)
	}
	last := evs[len(evs)-1]
	if last.Event != "result" || last.Result == nil {
		t.Fatalf("terminal event: %+v", last)
	}
	if last.Result.Degraded {
		t.Errorf("result treated oddly: %+v", last.Result)
	}
	if len(last.Result.Report.Experiments) == 0 {
		t.Error("result carries no tables")
	}
}

// TestServeProfileStreaming drives the profile: true path: a profiled
// experiment's ccl-profile/v1 reports arrive as first-class "profile"
// events, all of them before the terminal result; an experiment that
// attaches no profiler emits none.
func TestServeProfileStreaming(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp := postSpec(t, hs.URL, Spec{
		Schema: SpecSchema, Tenant: "acme",
		Experiments: []string{"fieldprof"}, Profile: true, Seed: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	evs := decodeStream(t, resp)
	var profiles []Event
	sawResult := false
	for _, ev := range evs {
		switch ev.Event {
		case "profile":
			if sawResult {
				t.Error("profile event after the result")
			}
			profiles = append(profiles, ev)
		case "result":
			sawResult = true
		}
	}
	if !sawResult {
		t.Fatalf("no result in %+v", evs)
	}
	if len(profiles) == 0 {
		t.Fatal("profile: true produced no profile events")
	}
	for _, ev := range profiles {
		if ev.Profile == nil || ev.Profile.Schema != "ccl-profile/v1" {
			t.Fatalf("profile event without a ccl-profile/v1 payload: %+v", ev)
		}
		if !strings.HasPrefix(ev.ID, "fieldprof/") {
			t.Errorf("profile event id %q lacks its experiment prefix", ev.ID)
		}
		if len(ev.Profile.Structs) == 0 {
			t.Errorf("profile %s carries no struct breakdown", ev.ID)
		}
	}

	// An unprofiled experiment under profile: true streams no profile
	// events — the flag asks for what exists, it does not create work.
	resp = postSpec(t, hs.URL, Spec{
		Schema: SpecSchema, Tenant: "acme",
		Experiments: []string{"control"}, Profile: true, Seed: 2,
	})
	for _, ev := range decodeStream(t, resp) {
		if ev.Event == "profile" {
			t.Fatalf("unprofiled experiment emitted a profile event: %+v", ev)
		}
	}
}

func TestServeBudgetExceededIsTyped(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp := postSpec(t, hs.URL, Spec{
		Schema: SpecSchema, Tenant: "acme", Experiments: []string{"table2"},
		BudgetBytes: 4096,
	})
	evs := decodeStream(t, resp)
	last := evs[len(evs)-1]
	if last.Event != "result" || last.Result == nil {
		t.Fatalf("terminal: %+v", last)
	}
	found := false
	for _, f := range last.Result.Report.Failures {
		if f.Class == "budget-exceeded" {
			found = true
		}
	}
	if !found {
		t.Errorf("no budget-exceeded failure in %+v", last.Result.Report.Failures)
	}
}

// TestServeNamedTenantBudget pins budget resolution for a tenant with
// its own Config.Tenants entry: the served run is charged against that
// tenant's budget, and ReferenceResult reproduces it byte for byte.
func TestServeNamedTenantBudget(t *testing.T) {
	cfg := Config{Tenants: map[string]TenantConfig{"acme": {BudgetBytes: 4096}}}
	_, hs := newTestServer(t, cfg)
	sp := Spec{Schema: SpecSchema, Tenant: "acme", Experiments: []string{"table2"}}
	line := resultLine(t, postSpec(t, hs.URL, sp))
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatal(err)
	}
	budgeted := false
	for _, f := range ev.Result.Report.Failures {
		budgeted = budgeted || f.Class == "budget-exceeded"
	}
	if !budgeted {
		t.Fatalf("acme's 4096-byte budget was not applied: %s", clip(line))
	}
	ref, err := ReferenceResult(context.Background(), sp, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, ref) {
		t.Errorf("served result diverged from its reference:\n served: %s\n ref:    %s", clip(line), clip(ref))
	}
}

func TestServeAdmissionRejections(t *testing.T) {
	cfg := Config{
		DefaultTenant: TenantConfig{RatePerSec: 0.001, Burst: 1, MaxActive: 1},
	}
	_, hs := newTestServer(t, cfg)
	// First request spends tenant-a's only token.
	resp := postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "tenant-a", Experiments: []string{"control"}})
	decodeStream(t, resp)
	// Second is rate-limited with a typed 429 + Retry-After.
	resp = postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "tenant-a", Experiments: []string{"control"}})
	eb := wantRejection(t, resp, http.StatusTooManyRequests)
	if eb.Class != "overloaded" {
		t.Errorf("class %q, want overloaded", eb.Class)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	// A different tenant is unaffected: admission is per-tenant.
	resp = postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "tenant-b", Experiments: []string{"control"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-b collateral damage: status %d", resp.StatusCode)
	}
	decodeStream(t, resp)
}

func TestServeAdmitFaultRejectsTyped(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp := postSpec(t, hs.URL, Spec{
		Schema: SpecSchema, Tenant: "acme", Experiments: []string{"control"},
		Fault: "serve-admit:1",
	})
	wantRejection(t, resp, http.StatusServiceUnavailable)
}

// TestStatusForMapsSentinels pins the rejection half of DESIGN.md
// §12's status table.
func TestStatusForMapsSentinels(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{cclerr.ErrCorruptTrace, http.StatusBadRequest},
		{cclerr.ErrInvalidArg, http.StatusBadRequest},
		{fmt.Errorf("%w: %w", errOverWork, cclerr.ErrInvalidArg), http.StatusRequestEntityTooLarge},
		{cclerr.ErrOverloaded, http.StatusServiceUnavailable},
		{cclerr.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{cclerr.ErrBudgetExceeded, http.StatusInsufficientStorage},
		{errors.New("unclassified"), http.StatusInternalServerError},
	} {
		if got := statusFor(fmt.Errorf("serve: %w", tc.err)); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestRunRequestDeadBeforeRun: a request whose deadline expired
// between admission and the run gets a typed terminal error event
// instead of a result, and no job runs.
func TestRunRequestDeadBeforeRun(t *testing.T) {
	req, err := ParseSpec(validSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var evs []Event
	err = runRequest(ctx, req, false, req.Injector(), runOptions{}, func(ev Event) error {
		evs = append(evs, ev)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("runRequest error %v, want context.DeadlineExceeded", err)
	}
	if len(evs) != 2 || evs[0].Event != "accepted" || evs[1].Event != "error" {
		t.Fatalf("events %+v, want accepted then error", evs)
	}
	if evs[1].Class != "deadline-exceeded" {
		t.Errorf("terminal class %q, want deadline-exceeded", evs[1].Class)
	}
}

func TestServeOversizedBody(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	body := bytes.Repeat([]byte("x"), MaxSpecBytes+2)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantRejection(t, resp, http.StatusRequestEntityTooLarge)
}

func TestServeMethodNotAllowed(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantRejection(t, resp, http.StatusMethodNotAllowed)
}

func TestServeDeadlineProducesInterruptedResult(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp := postSpec(t, hs.URL, Spec{
		Schema: SpecSchema, Tenant: "acme",
		Experiments: []string{"table1", "table2", "control"},
		DeadlineMS:  1, // expires almost immediately
	})
	if resp.StatusCode == http.StatusOK {
		evs := decodeStream(t, resp)
		last := evs[len(evs)-1]
		switch last.Event {
		case "result":
			if !last.Result.Report.Interrupted && len(last.Result.Report.Experiments) == 0 {
				t.Errorf("deadline result neither interrupted nor populated: %+v", last.Result.Report)
			}
		case "error":
			if last.Class == "" {
				t.Errorf("terminal error has no class: %+v", last)
			}
		default:
			t.Errorf("odd terminal event %+v", last)
		}
	} else {
		// Deadline may fire while still queued: a typed 504.
		wantRejection(t, resp, http.StatusGatewayTimeout)
	}
}

func TestServeDegradationUnderLoad(t *testing.T) {
	cfg := Config{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 16,
		DegradeAt: 1, SmokeJobs: 1,
		DefaultTenant: TenantConfig{MaxActive: 32},
	}
	_, hs := newTestServer(t, cfg)
	const n = 6
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "acme", Experiments: []string{"table2"}, Seed: int64(i)})
			if resp.StatusCode != http.StatusOK {
				return
			}
			evs := decodeStream(t, resp)
			if last := evs[len(evs)-1]; last.Event == "result" {
				results[i] = last.Result
			}
		}()
	}
	wg.Wait()
	degraded := 0
	for _, r := range results {
		if r != nil && r.Degraded {
			degraded++
			notes := strings.Join(r.Report.Experiments[0].Notes, ";")
			if !strings.Contains(notes, "degraded") {
				t.Errorf("degraded table missing its note: %q", notes)
			}
		}
	}
	if degraded == 0 {
		t.Error("one worker + DegradeAt=1 under 6 concurrent requests produced no degraded results")
	}
}

func TestServePanicIsolated(t *testing.T) {
	// An impossible occurrence count can't panic, so drive the panic
	// path directly through a handler whose spec triggers the
	// registry-vanished panic in benchSpecs via a crafted Request.
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	// Hand-build a request that passes admission but panics in run:
	// an experiment id not in the registry.
	req := &Request{Spec: Spec{Schema: SpecSchema, Tenant: "acme", Experiments: []string{"vanished"}}}
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	srv.serveRequest(rec, hr, req)
	// The server survived; the stream carries a typed error event.
	resp := rec.Result()
	defer resp.Body.Close()
	evs := []Event{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil {
			evs = append(evs, ev)
		}
	}
	last := evs[len(evs)-1]
	if last.Event != "error" || !strings.Contains(last.Error, "panicked") {
		t.Fatalf("panic not surfaced as stream error: %+v", evs)
	}
	// And the server still serves.
	resp2 := postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "acme", Experiments: []string{"control"}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("server dead after panic: %d", resp2.StatusCode)
	}
	decodeStream(t, resp2)
}

func TestServeReplayEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	tr := trace.Trace{
		Config:  cache.PaperHierarchy(),
		Records: []trace.Record{{Addr: 0x40, Size: 8}, {Addr: 0x80, Size: 8}, {Addr: 0x40, Size: 8}},
	}
	resp, err := http.Post(hs.URL+"/v1/replay?tenant=acme&seed=9", "application/octet-stream", bytes.NewReader(tr.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	evs := decodeStream(t, resp)
	last := evs[len(evs)-1]
	if last.Event != "result" || last.Result == nil {
		t.Fatalf("terminal: %+v", last)
	}
	tabs := last.Result.Report.Experiments
	if len(tabs) != 1 || tabs[0].ID != uploadReplayID {
		t.Fatalf("tables: %+v", tabs)
	}
	if len(tabs[0].Rows) != 1 || tabs[0].Rows[0][0] != "3" {
		t.Errorf("replay fingerprint row: %+v", tabs[0].Rows)
	}

	// Bad query parameters are typed 400s.
	resp2, err := http.Post(hs.URL+"/v1/replay?tenant=acme&seed=123abc", "application/octet-stream", bytes.NewReader(tr.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	wantRejection(t, resp2, http.StatusBadRequest)

	// Corrupt trace bytes are typed 400s too.
	resp3, err := http.Post(hs.URL+"/v1/replay?tenant=acme", "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	wantRejection(t, resp3, http.StatusBadRequest)
}

// overflowUpload encodes a trace whose L1 associativity times block
// size wraps to zero, the geometry that once panicked the decoder
// inside the HTTP handler.
func overflowUpload() []byte {
	cfg := cache.PaperHierarchy()
	cfg.Levels[0].Assoc = 1 << 60
	return trace.Trace{Config: cfg, Records: []trace.Record{{Addr: 0x40, Size: 8}}}.Encode()
}

// TestServeReplayRejectsHostileGeometry checks that decoded geometries
// the simulator cannot run are typed 400s, on both upload paths,
// before anything is admitted.
func TestServeReplayRejectsHostileGeometry(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	negative := cache.PaperHierarchy()
	negative.Levels[0].Latency = -5
	huge := cache.PaperHierarchy()
	huge.Levels[1].Size = 1 << 30
	recs := []trace.Record{{Addr: 0x40, Size: 8}}
	paper := cache.PaperHierarchy()
	for name, tc := range map[string]struct {
		body  []byte
		class error
	}{
		"assoc*block overflow": {overflowUpload(), cclerr.ErrCorruptTrace},
		"negative latency":     {trace.Trace{Config: negative, Records: recs}.Encode(), cclerr.ErrCorruptTrace},
		"1 GiB level":          {trace.Trace{Config: huge, Records: recs}.Encode(), cclerr.ErrCorruptTrace},
		// A size varint of 2^63 or more once wrapped negative and
		// panicked the job inside a 200.
		"size -1": {trace.Trace{Config: paper, Records: []trace.Record{{Addr: 0x40, Size: -1}}}.Encode(), cclerr.ErrCorruptTrace},
		// The 53-byte upload a fuzzer found: weeks of replay.
		"size 27043761148215941": {trace.Trace{Config: paper, Records: []trace.Record{{Addr: 0x40, Size: 27_043_761_148_215_941}}}.Encode(), cclerr.ErrCorruptTrace},
		// A well-formed version-2 capture: one hierarchy would serve
		// the core-3 load from the core-0 store's line (1 L1 miss
		// where two private caches take 2).
		"multicore (version 2)": {trace.Trace{Config: paper, Records: []trace.Record{
			{Kind: trace.Store, Addr: 0x40, Size: 8},
			{Kind: trace.Load, Addr: 0x40, Size: 8, Core: 3},
		}}.Encode(), cclerr.ErrInvalidArg},
	} {
		t.Run(name, func(t *testing.T) {
			body := tc.body
			resp, err := http.Post(hs.URL+"/v1/replay?tenant=acme", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err) // a panic in the handler drops the connection
			}
			defer resp.Body.Close()
			if eb := wantRejection(t, resp, http.StatusBadRequest); eb.Class != cclerr.Class(tc.class) {
				t.Errorf("class %q, want %q", eb.Class, cclerr.Class(tc.class))
			}
			resp2 := postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "acme", TraceB64: base64.StdEncoding.EncodeToString(body)})
			wantRejection(t, resp2, http.StatusBadRequest)
		})
	}
}

// TestServeReplayRejectsOverWork checks that an upload whose records
// each pass the size cap but together exceed MaxTraceWork is a typed
// 413 on both upload paths, before anything is admitted.
func TestServeReplayRejectsOverWork(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{Addr: memsys.Addr(i) << 20, Size: trace.MaxRecordSize}
	}
	// 1,000 MiB at the §4.1 machine's 16-byte L1 blocks: 65,536,000
	// blocks against the cap of 16,777,216.
	body := trace.Trace{Config: cache.PaperHierarchy(), Records: recs}.Encode()
	resp, err := http.Post(hs.URL+"/v1/replay?tenant=acme", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if eb := wantRejection(t, resp, http.StatusRequestEntityTooLarge); eb.Class != cclerr.Class(cclerr.ErrInvalidArg) {
		t.Errorf("class %q, want %q", eb.Class, cclerr.Class(cclerr.ErrInvalidArg))
	}
	resp2 := postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "acme", TraceB64: base64.StdEncoding.EncodeToString(body)})
	wantRejection(t, resp2, http.StatusRequestEntityTooLarge)
}

func TestServeExperimentsAndHealth(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Schema      string   `json:"schema"`
		Experiments []string `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Schema != SpecSchema || len(list.Experiments) == 0 {
		t.Fatalf("experiments payload: %+v", list)
	}

	resp2, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h health
	if err := json.NewDecoder(resp2.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health %+v", h)
	}
	srv.BeginDrain()
	resp3, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("post-drain health %+v", h)
	}
}

func TestServeDrainRejectsAndCompletes(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	srv.BeginDrain()
	resp := postSpec(t, hs.URL, Spec{Schema: SpecSchema, Tenant: "acme", Experiments: []string{"control"}})
	wantRejection(t, resp, http.StatusServiceUnavailable)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
}

// TestServeDeterministicAcrossRuns submits the same spec to two
// separate servers and expects byte-identical result lines.
func TestServeDeterministicAcrossRuns(t *testing.T) {
	get := func() string {
		_, hs := newTestServer(t, Config{})
		return string(resultLine(t, postSpec(t, hs.URL, Spec{
			Schema: SpecSchema, Tenant: "acme",
			Experiments: []string{"table1", "control"},
			Seed:        42, Fault: "serve-stream:3,arena-grow:2",
		})))
	}
	if a, b := get(), get(); a != b {
		t.Errorf("result lines diverge:\n a: %s\n b: %s", a, b)
	}
}
