package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccl/internal/bench"
	"ccl/internal/cclerr"
	"ccl/internal/faults"
)

// Config configures a Server. The zero value is usable: every knob
// has a serving-shaped default.
type Config struct {
	// Shards is the number of worker shards; a tenant hashes to one
	// shard, so a single tenant can saturate at most one shard's
	// workers. Default 4.
	Shards int
	// WorkersPerShard bounds concurrently running requests per shard.
	// Default 2.
	WorkersPerShard int
	// QueueDepth bounds requests waiting for a worker, per shard;
	// beyond it admission rejects with 503. Default 8.
	QueueDepth int
	// DegradeAt is the total admitted-request count beyond which new
	// requests are degraded to smoke variants; 0 disables
	// degradation.
	DegradeAt int
	// SmokeJobs is how many jobs per experiment a degraded request
	// runs. Default 2.
	SmokeJobs int
	// DefaultTenant is the admission envelope for tenants without an
	// entry in Tenants.
	DefaultTenant TenantConfig
	// Tenants holds per-tenant admission overrides.
	Tenants map[string]TenantConfig
	// DefaultDeadline bounds requests that ask for none (default
	// 30 s). Every deadline, this one included, is clipped to the
	// spec cap, MaxDeadlineMS.
	DefaultDeadline time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.SmokeJobs <= 0 {
		c.SmokeJobs = 2
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// shard is one slice of the worker fleet: a bounded queue in front of
// a bounded set of workers.
type shard struct {
	slots  chan struct{} // worker tokens
	queued atomic.Int64
}

// Server is the simulation server. Create with New, expose via
// Handler, shut down via Drain.
type Server struct {
	cfg     Config
	tenants *tenants
	shards  []*shard
	active  atomic.Int64 // admitted, not yet finished (all shards)
	served  atomic.Int64 // completed request streams, for /healthz
	drain   atomic.Bool
	baseCtx context.Context
	cancel  context.CancelFunc
	// drainMu orders request registration against BeginDrain: an
	// admission either completes its wg.Add before drain flips, or
	// observes the flip and rejects — so Drain's wg.Wait can never
	// race a concurrent Add.
	drainMu sync.Mutex
	wg      sync.WaitGroup
}

// beginRequest registers an admitted request with the drain
// accounting, refusing when a drain has begun.
func (s *Server) beginRequest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.drain.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		tenants: newTenants(cfg),
		baseCtx: ctx,
		cancel:  cancel,
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{slots: make(chan struct{}, cfg.WorkersPerShard)}
		for j := 0; j < cfg.WorkersPerShard; j++ {
			sh.slots <- struct{}{}
		}
		s.shards = append(s.shards, sh)
	}
	return s
}

// Handler returns the server's HTTP interface:
//
//	POST /v1/jobs        submit a spec, stream NDJSON events
//	POST /v1/replay      submit a raw binary trace (octet-stream)
//	GET  /v1/experiments list runnable experiment ids
//	GET  /healthz        liveness + load
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, false)
	})
	mux.HandleFunc("/v1/replay", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, true)
	})
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// errorBody is the JSON envelope of every non-streaming rejection.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// writeError sends a typed rejection. Every rejection the server
// produces carries a cclerr class; DESIGN.md §12 documents the
// status mapping.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if status == 429 || status == 503 {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Class: cclerr.Class(err)})
}

// statusFor maps a spec-validation failure to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, cclerr.ErrCorruptTrace):
		return http.StatusBadRequest
	case errors.Is(err, cclerr.ErrInvalidArg):
		return http.StatusBadRequest
	case errors.Is(err, cclerr.ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, cclerr.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, cclerr.ErrBudgetExceeded):
		return http.StatusInsufficientStorage
	default:
		return http.StatusInternalServerError
	}
}

// handleSubmit is the submission path shared by /v1/jobs (JSON spec)
// and /v1/replay (raw trace bytes, spec in query parameters).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, raw bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed,
			cclerr.Errorf(cclerr.ErrInvalidArg, "serve: %s not allowed", r.Method))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest,
			cclerr.Errorf(cclerr.ErrInvalidArg, "serve: reading body: %v", err))
		return
	}
	if len(body) > MaxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			cclerr.Errorf(cclerr.ErrInvalidArg, "serve: body exceeds %d bytes", MaxSpecBytes))
		return
	}
	var req *Request
	if raw {
		req, err = parseRawReplay(r, body)
	} else {
		req, err = ParseSpec(body)
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	s.serveRequest(w, r, req)
}

// parseRawReplay builds a Request from a raw binary trace body plus
// query parameters (tenant, seed, deadline_ms, budget_bytes).
func parseRawReplay(r *http.Request, body []byte) (*Request, error) {
	q := r.URL.Query()
	sp := Spec{Schema: SpecSchema, Tenant: q.Get("tenant")}
	if !tenantNameOK(sp.Tenant) {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serve: bad tenant %q in query", sp.Tenant)
	}
	for _, f := range []struct {
		name string
		dst  *int64
		max  int64
	}{
		{"seed", &sp.Seed, 1<<63 - 1},
		{"deadline_ms", &sp.DeadlineMS, MaxDeadlineMS},
		{"budget_bytes", &sp.BudgetBytes, MaxBudgetBytes},
	} {
		if v := q.Get(f.name); v != "" {
			n, err := parseInt64(v)
			if err != nil || n < 0 || n > f.max {
				return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
					"serve: bad %s %q in query", f.name, v)
			}
			*f.dst = n
		}
	}
	tr, err := decodeUpload(body)
	if err != nil {
		return nil, err
	}
	return &Request{Spec: sp, Trace: tr}, nil
}

func parseInt64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

// serveRequest admits, queues, runs, and streams one validated
// request.
func (s *Server) serveRequest(w http.ResponseWriter, r *http.Request, req *Request) {
	inj := req.Injector()
	tenant := s.tenants.get(req.Spec.Tenant)

	// Admission, in rejection-priority order: injected admission
	// faults (simulated overload), drain, tenant rate, tenant queue,
	// shard queue. Each rejection is typed and costs the tenant
	// nothing.
	if err := inj.Check(faults.ServeAdmit); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf(
			"serve: admission rejected: %w: %w", cclerr.ErrOverloaded, err))
		return
	}
	if s.drain.Load() {
		writeError(w, http.StatusServiceUnavailable,
			cclerr.Errorf(cclerr.ErrOverloaded, "serve: draining, not admitting"))
		return
	}
	if status, err := tenant.admit(time.Now()); err != nil {
		writeError(w, status, err)
		return
	}
	sh := s.shards[shardOf(req.Spec.Tenant, s.cfg.Shards)]
	if sh.queued.Add(1) > int64(s.cfg.QueueDepth+s.cfg.WorkersPerShard) {
		sh.queued.Add(-1)
		tenant.release()
		writeError(w, http.StatusServiceUnavailable,
			cclerr.Errorf(cclerr.ErrOverloaded, "serve: shard queue full"))
		return
	}
	if !s.beginRequest() {
		sh.queued.Add(-1)
		tenant.release()
		writeError(w, http.StatusServiceUnavailable,
			cclerr.Errorf(cclerr.ErrOverloaded, "serve: draining, not admitting"))
		return
	}
	s.active.Add(1)
	defer func() {
		sh.queued.Add(-1)
		tenant.release()
		s.active.Add(-1)
		s.served.Add(1)
		s.wg.Done()
	}()

	// The degradation decision is taken at admission, against total
	// admitted load, and rides the whole request: under pressure the
	// tenant gets a fast smoke answer (flagged) instead of a queue
	// timeout.
	degraded := s.cfg.DegradeAt > 0 && s.active.Load() > int64(s.cfg.DegradeAt)

	// Request deadline: the spec's ask, clipped; the context also
	// descends from the HTTP request context, which the http.Server's
	// BaseContext ties to this server's lifetime — Drain's cancel
	// reaches every in-flight run through it.
	deadline := s.cfg.DefaultDeadline
	if req.Spec.DeadlineMS > 0 {
		deadline = time.Duration(req.Spec.DeadlineMS) * time.Millisecond
	}
	deadline = min(deadline, MaxDeadlineMS*time.Millisecond)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// Bounded queue: wait for a worker slot, but never past the
	// deadline.
	select {
	case <-sh.slots:
	case <-ctx.Done():
		writeError(w, http.StatusGatewayTimeout, cclerr.Errorf(
			cclerr.ErrDeadlineExceeded, "serve: deadline expired in queue"))
		return
	}
	defer func() { sh.slots <- struct{}{} }()

	// From here on the response is a stream; failures become events,
	// not statuses.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	emit := streamEmit(inj, func(ev Event) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return cclerr.Errorf(cclerr.ErrInvalidArg, "serve: marshal event: %v", err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return fmt.Errorf("serve: client write: %w", err)
		}
		flush()
		return nil
	})

	// Panic isolation: a bug anywhere under the run must kill this
	// request, not the server.
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("serve: request panicked: %v", p)
			}
		}()
		return runRequest(ctx, req, degraded, inj, runOptions{
			smokeJobs:     s.cfg.SmokeJobs,
			defaultBudget: tenant.cfg.BudgetBytes,
		}, emit)
	}()
	if err != nil {
		s.cfg.Logf("serve: %s: stream ended: %v", req.Spec.Tenant, err)
		// Best effort: the stream may already be dead.
		b, _ := json.Marshal(Event{Event: "error", Error: err.Error(), Class: cclerr.Class(err)})
		w.Write(append(b, '\n'))
		flush()
	}
}

// streamEmit wraps a raw event sink with the serve-stream fault
// point: every emitted event is one occurrence, so a schedule like
// "serve-stream:2" kills the stream at the second line — exactly how
// a mid-stream client disconnect lands. The reference runner wraps
// its collector with the same function, which is what keeps faulted
// streams byte-identical between served and reference runs.
func streamEmit(inj *faults.Injector, sink func(Event) error) func(Event) error {
	return func(ev Event) error {
		if err := inj.Check(faults.ServeStream); err != nil {
			return fmt.Errorf("serve: stream write vetoed: %w", err)
		}
		return sink(ev)
	}
}

// handleExperiments lists runnable experiment ids.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"schema": SpecSchema, "experiments": bench.IDs()})
}

// health is the /healthz payload.
type health struct {
	Status string `json:"status"`
	Active int64  `json:"active"`
	Served int64  `json:"served"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := "ok"
	if s.drain.Load() {
		st = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(health{Status: st, Active: s.active.Load(), Served: s.served.Load()})
}

// BaseContext is what http.Server.BaseContext should return for this
// server's listeners: request contexts descend from it, so Drain's
// hard-cancel reaches every in-flight run.
func (s *Server) BaseContext() context.Context { return s.baseCtx }

// BeginDrain stops admission without waiting; Drain calls it, but a
// signal handler may want the 503s to start before it has a drain
// context ready. Taking drainMu orders the flip after any in-flight
// beginRequest, so a later Drain observes every admitted request.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.drain.Store(true)
	s.drainMu.Unlock()
}

// Drain shuts the server down cleanly: stop admitting, let in-flight
// requests finish, and when ctx expires first, cancel them — each
// flushes a partial, interrupted result downstream — and wait for
// the (now prompt) remainder. It returns nil on a clean drain and a
// typed ErrDeadlineExceeded when the deadline forced cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.cancel() // hard-cancel in-flight request contexts
	<-done     // cancellation makes these prompt: pool jobs stop issuing
	return cclerr.Errorf(cclerr.ErrDeadlineExceeded,
		"serve: drain deadline expired; in-flight requests cancelled, partial results flushed")
}
