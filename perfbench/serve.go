package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ccl/internal/apps/serving"
	"ccl/internal/bench"
	"ccl/internal/cache"
	"ccl/internal/machine"
	"ccl/internal/serve"
	"ccl/internal/trace"
)

// The serve workload is open loop: two classes, each on its own
// connection and tenant, each sending on a seeded schedule whether or
// not the previous request has finished.
const (
	uploadRate    = 10.0 // uploads per second
	jobRate       = 4.0  // experiment specs per second
	uploadSeeds   = 3    // distinct traces per structure
	uploadLimit   = 100 * time.Millisecond
	jobLimit      = 1500 * time.Millisecond
	serveSetups   = 9
	maxGenLate    = 50 * time.Millisecond
	serveTailQ    = 0.95 // ~280 requests in 20 s: 14 beyond p95
	uploadTenant  = "uploads"
	jobTenant     = "jobs"
	healthTimeout = 20 * time.Second
)

// uploadOps is how many structure ops each uploaded trace records,
// chosen so every upload carries about 90k accesses: latency then
// depends on the layers, not on which structure a trace came from, and
// the server's work outweighs the millisecond of wake-up jitter that
// every request on a shared host carries.
var uploadOps = map[string]int64{"kv": 12000, "lru": 6000, "pq": 1350}

// jobExperiments are the experiment specs the job class cycles
// through; multicore carries the mc.KV cycles the serve workload
// reports. Each runs in under 125 ms, the shortest gap the schedule
// draws at jobRate, so a job never queues behind the previous one and
// the job tail measures the server rather than the schedule's seed.
var jobExperiments = []string{"table2", "replay", "multicore"}

// upload is one recorded trace and everything needed to check the
// server's answer to it.
type upload struct {
	kind    string
	ops     int64
	body    []byte // encoded trace
	refLine []byte // serve.ReferenceResult for the same trace
	refCost time.Duration
	records int64
	cycles  int64 // trace.AccessTrace on a fresh hierarchy
	misses  int64
}

// job is one experiment spec with its reference result line.
type job struct {
	id      string
	body    []byte
	refLine []byte
	refCost time.Duration
}

// recordUpload builds and warms one serving structure, then records
// ops of its op stream through a serving.TraceRecorder.
func recordUpload(kind string, seed int64, ops int64) (trace.Trace, error) {
	m := machine.NewScaled(raceScale)
	rec := serving.NewTraceRecorder(m)
	var err error
	switch kind {
	case "kv":
		var kv *serving.KV
		if kv, err = newWarmKV(m, kvSplit); err == nil {
			kv.UseMem(rec)
			_, err = serving.RunKV(kv, kvWork(seed, ops))
		}
	case "lru":
		var c *serving.LRU
		if c, _, err = newWarmLRU(m, lruWork(seed+1, 2*lruCap)); err == nil {
			c.UseMem(rec)
			_, err = serving.RunLRU(c, lruWork(seed, ops))
		}
	case "pq":
		var q *serving.PQueue
		w := pqWork(seed, ops)
		if q, err = newFilledPQ(m, w); err == nil {
			q.UseMem(rec)
			_, err = serving.RunPQ(q, w)
		}
	default:
		err = fmt.Errorf("unknown upload kind %q", kind)
	}
	return rec.Trace(), err
}

// newUpload records one trace and computes its expected answers
// in-process: the reference result line and the replay fingerprint.
func newUpload(ctx context.Context, kind string, seed int64) (upload, error) {
	tr, err := recordUpload(kind, seed, uploadOps[kind])
	if err != nil {
		return upload{}, fmt.Errorf("recording %s trace: %w", kind, err)
	}
	u := upload{kind: kind, ops: uploadOps[kind], body: tr.Encode(), records: int64(len(tr.Records))}
	// The fingerprint is of the uploaded bytes: the codec carries the
	// cache levels, not every field of the recording machine's config.
	// Decoding and replaying them is also the work the server must do,
	// so its median time is the upload's in-process cost.
	var costs []float64
	for i := 0; i < refReps; i++ {
		t0 := time.Now()
		sent, err := trace.Decode(u.body)
		if err != nil {
			return upload{}, fmt.Errorf("decoding %s trace: %w", kind, err)
		}
		h := cache.New(sent.Config)
		u.cycles = trace.AccessTrace(h, sent.Records)
		costs = append(costs, float64(time.Since(t0)))
		st := h.Stats()
		u.misses = st.Levels[len(st.Levels)-1].Misses
	}
	u.refCost = time.Duration(median(costs))
	u.refLine, _, err = reference(ctx, serve.Spec{
		Schema: serve.SpecSchema, Tenant: uploadTenant,
		TraceB64: base64.StdEncoding.EncodeToString(u.body),
	})
	if err != nil {
		return upload{}, fmt.Errorf("reference for %s upload: %w", kind, err)
	}
	return u, nil
}

// refReps is how many times in-process work is repeated; the median
// time is the cost a served request is compared with.
const refReps = 3

// reference computes sp's result line in-process, checks that every
// repetition agrees, and returns its median cost.
func reference(ctx context.Context, sp serve.Spec) ([]byte, time.Duration, error) {
	var line []byte
	var costs []float64
	for i := 0; i < refReps; i++ {
		t0 := time.Now()
		l, err := serve.ReferenceResult(ctx, sp, false, serve.Config{})
		costs = append(costs, float64(time.Since(t0)))
		if err != nil {
			return nil, 0, err
		}
		if line != nil && !bytes.Equal(l, line) {
			return nil, 0, errors.New("reference result is not deterministic")
		}
		line = l
	}
	return line, time.Duration(median(costs)), nil
}

func newJob(ctx context.Context, id string) (job, error) {
	sp := serve.Spec{Schema: serve.SpecSchema, Tenant: jobTenant, Experiments: []string{id}}
	body, err := json.Marshal(sp)
	if err != nil {
		return job{}, err
	}
	ref, cost, err := reference(ctx, sp)
	if err != nil {
		return job{}, fmt.Errorf("reference for %s: %w", id, err)
	}
	return job{id: id, body: body, refLine: ref, refCost: cost}, nil
}

// server is one running cclserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches cclserve sized so the workload's load is never
// rejected or degraded, and returns once /healthz answers 200 along
// with the time that took.
func startServer(b *harness) (*server, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(filepath.Join(b.bin, "cclserve"),
		"-addr", addr, "-shards", "4", "-workers", "2", "-queue", "64",
		"-degrade-at", "64", "-rate", "0", "-max-active", "64")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting cclserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { s.err = cmd.Wait(); close(s.done) }()
	client := &http.Client{Timeout: time.Second}
	for time.Since(t0) < healthTimeout {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("cclserve exited during start-up: %v", s.err)
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, errors.New("cclserve never answered /healthz")
}

// stop drains the server with SIGTERM, kills it if the drain hangs,
// and waits for the process to end. It reports the drain's exit error.
func (s *server) stop() error {
	// A signal error means the process already exited; Wait's result,
	// in s.err, says how.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("cclserve drain hung; killed")
	}
	return s.err
}

// timing is one request's client-side timeline.
type timing struct {
	class                                     string
	due, sent, headers, accepted, result, end time.Time
	ok                                        bool
	inProc                                    time.Duration // in-process cost of the same work
	late                                      time.Duration // generator lateness
}

func (t timing) latency() time.Duration { return t.result.Sub(t.due) }

// send posts one request over client and checks its result line
// against want. check, when non-nil, validates the parsed result.
func send(ctx context.Context, client *http.Client, url, ctype string, body, want []byte, check func(*serve.Result) error) (timing, error) {
	var t timing
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return t, err
	}
	req.Header.Set("Content-Type", ctype)
	t.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return t, err
	}
	defer resp.Body.Close()
	t.headers = time.Now()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return t, fmt.Errorf("status %d: %s", resp.StatusCode, clip(string(msg)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), serve.MaxSpecBytes)
	var line []byte
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return t, fmt.Errorf("bad stream line: %w", err)
		}
		switch ev.Event {
		case "accepted":
			t.accepted = time.Now()
			if ev.Degraded {
				return t, errors.New("request degraded")
			}
		case "result":
			t.result = time.Now()
			line = append([]byte(nil), sc.Bytes()...)
			if check != nil {
				if err := check(ev.Result); err != nil {
					return t, err
				}
			}
		case "error":
			return t, fmt.Errorf("stream error: %s (%s)", ev.Error, ev.Class)
		}
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	t.end = time.Now()
	if line == nil {
		return t, errors.New("stream ended without a result")
	}
	if !bytes.Equal(line, want) {
		return t, fmt.Errorf("result differs from reference: %s", clip(string(line)))
	}
	t.ok = true
	return t, nil
}

// checkFingerprint compares the server's replay table with the
// in-process replay of the same trace.
func (u upload) checkFingerprint(r *serve.Result) error {
	if r == nil || len(r.Report.Experiments) != 1 || len(r.Report.Experiments[0].Rows) != 1 {
		return errors.New("upload result has no replay row")
	}
	row := r.Report.Experiments[0].Rows[0]
	want := []int64{u.records, u.cycles, u.misses}
	for i, w := range want {
		if i >= len(row) || row[i] != strconv.FormatInt(w, 10) {
			return fmt.Errorf("upload fingerprint %v, in-process %v", row, want)
		}
	}
	return nil
}

// newClient returns a client holding at most one connection, so each
// class's requests queue on their own connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// schedule returns the send offsets inside window at the given mean
// rate, each gap drawn uniformly from [0.5, 1.5] of the mean period.
func schedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	period := float64(time.Second) / rate
	var out []time.Duration
	at := period * rng.Float64()
	for time.Duration(at) < window {
		out = append(out, time.Duration(at))
		at += period * (0.5 + rng.Float64())
	}
	return out
}

// serveSet is the serve workload's prepared traffic.
type serveSet struct {
	uploads []upload
	jobs    []job
}

func newServeSet(ctx context.Context, seed int64) (*serveSet, error) {
	ss := &serveSet{}
	for i := 0; i < uploadSeeds; i++ {
		for k, kind := range []string{"kv", "lru", "pq"} {
			u, err := newUpload(ctx, kind, derive(seed, 10+k, i))
			if err != nil {
				return nil, err
			}
			ss.uploads = append(ss.uploads, u)
		}
	}
	for _, id := range jobExperiments {
		j, err := newJob(ctx, id)
		if err != nil {
			return nil, err
		}
		ss.jobs = append(ss.jobs, j)
	}
	return ss, nil
}

// spinLead is how long before a request is due its generator stops
// sleeping and spins: a Go timer wakes up to a millisecond late, and
// that lateness would read as server latency.
const spinLead = 2 * time.Millisecond

// classRun drives one class: a generator goroutine waits until each
// request is due and hands it to the class's connection goroutine,
// which sends requests one at a time. Both goroutines end before
// classRun returns.
func classRun(ctx context.Context, offs []time.Duration, t0 time.Time, do func(i int) timing) []timing {
	type item struct {
		i    int
		due  time.Time
		late time.Duration
	}
	queue := make(chan item, len(offs)) // sized to the number of sends
	go func() {
		defer close(queue)
		for i, off := range offs {
			due := t0.Add(off)
			if d := time.Until(due) - spinLead; d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			for time.Now().Before(due) {
			}
			queue <- item{i, due, time.Since(due)}
		}
	}()
	var out []timing
	for it := range queue {
		t := do(it.i)
		t.due, t.late = it.due, it.late
		out = append(out, t)
	}
	return out
}

// sendUpload and sendJob issue request i of their class and record the
// outcome; failures count against the run.
func (ss *serveSet) sendUpload(ctx context.Context, b *harness, s *server, client *http.Client, i int) timing {
	u := ss.uploads[i%len(ss.uploads)]
	t, err := send(ctx, client, s.base+"/v1/replay?tenant="+uploadTenant, "application/octet-stream", u.body, u.refLine, u.checkFingerprint)
	t.class, t.inProc = "upload", u.refCost
	if err != nil {
		b.fail("upload %d (%s): %v", i, u.kind, err)
	}
	return t
}

func (ss *serveSet) sendJob(ctx context.Context, b *harness, s *server, client *http.Client, i int) timing {
	j := ss.jobs[i%len(ss.jobs)]
	t, err := send(ctx, client, s.base+"/v1/jobs", "application/json", j.body, j.refLine, nil)
	t.class, t.inProc = "job", j.refCost
	if err != nil {
		b.fail("job %d (%s): %v", i, j.id, err)
	}
	return t
}

// runServe is the serve workload.
func runServe(b *harness) error {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	ss, err := newServeSet(ctx, b.seed)
	if err != nil {
		return err
	}

	var setups []float64
	var srv *server
	for i := 0; i < serveSetups; i++ {
		s, d, err := startServer(b)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < serveSetups-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("cclserve start-up drain: %w", err)
			}
		} else {
			srv = s
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop() // an early return already carries the error to report
		}
	}()

	rng := rand.New(rand.NewSource(derive(b.seed, 20, 0)))
	upOffs := schedule(rng, uploadRate, b.seconds)
	jobOffs := schedule(rng, jobRate, b.seconds)
	runtime.GC() // set-up's garbage is not collected inside the window
	t0 := time.Now().Add(50 * time.Millisecond)
	var mu sync.Mutex
	var all []timing
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient()
		ts := classRun(ctx, upOffs, t0, func(i int) timing {
			return ss.sendUpload(ctx, b, srv, c, i)
		})
		mu.Lock()
		all = append(all, ts...)
		mu.Unlock()
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		ts := classRun(ctx, jobOffs, t0, func(i int) timing {
			return ss.sendJob(ctx, b, srv, c, i)
		})
		mu.Lock()
		all = append(all, ts...)
		mu.Unlock()
	}()
	wg.Wait()
	stopped = true
	if err := srv.stop(); err != nil {
		b.fail("cclserve drain: %v", err)
	}

	b.attempted += int64(len(upOffs) + len(jobOffs))
	if got := len(all); got != len(upOffs)+len(jobOffs) {
		b.fail("%d of %d scheduled requests were sent", got, len(upOffs)+len(jobOffs))
	}
	// lat pools both classes for the tail; upLat, the upload class
	// alone, gives the median. A pooled median would sit at the uploads'
	// 70th percentile, where the uploads that overlap a running job
	// begin, and swing with how many of them a schedule holds.
	var lat, upLat, tracedUp []float64
	var good int
	var last time.Time
	var maxLate time.Duration
	half := t0.Add(b.seconds / 2)
	for _, t := range all {
		maxLate = max(maxLate, t.late)
		if !t.ok {
			continue
		}
		limit := uploadLimit
		if t.class == "job" {
			limit = jobLimit
		}
		if t.latency() <= limit {
			good++
		}
		if t.end.After(last) {
			last = t.end
		}
		if b.traced && t.due.After(half) {
			if t.class == "upload" {
				tracedUp = append(tracedUp, ms(t.latency()))
			}
			recordRequestSpans(b, t)
			continue
		}
		lat = append(lat, ms(t.latency()))
		if t.class == "upload" {
			upLat = append(upLat, ms(t.latency()))
		}
	}
	for _, class := range []string{"upload", "job"} {
		var xs, admit, run []float64
		for _, t := range all {
			if t.class == class && t.ok {
				xs = append(xs, ms(t.latency()))
				admit = append(admit, ms(t.headers.Sub(t.sent)))
				run = append(run, ms(t.result.Sub(t.accepted)))
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: serve %s: %d samples, latency p50 %.2f p90 %.2f p95 %.2f max %.2f ms (admit p50 %.2f, run p50 %.2f)\n",
			class, len(xs), median(xs), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 1), median(admit), median(run))
	}
	if maxLate > maxGenLate {
		b.fail("generator ran %v late: the client, not the server, set the schedule", maxLate)
	}

	b.set("setup_s", median(setups))
	b.set("peak_rss_mb", childPeakRSSMB(srv.cmd.ProcessState))
	b.set("rate_per_s", float64(good)/last.Sub(t0).Seconds())
	b.set("p50_ms", median(upLat))
	b.set("tail_ms", quantile(lat, serveTailQ))
	for _, kind := range []string{"kv", "lru", "pq"} {
		var cyc []float64
		for _, u := range ss.uploads {
			if u.kind == kind {
				cyc = append(cyc, float64(u.cycles)/float64(u.ops))
			}
		}
		b.set(kind+"_cycles_per_op", sum(cyc)/float64(len(cyc)))
	}
	for _, j := range ss.jobs {
		if j.id == "multicore" {
			v, err := resultCell(j.refLine, "multicore", mcRowLabel, "Cycles/op")
			if err != nil {
				return err
			}
			b.set("mc_cycles_per_op", v)
		}
	}
	if b.traced {
		b.set("tracing.overhead_ms", median(tracedUp)-median(upLat))
		setServePhases(b, all, maxLate)
	}
	return nil
}

// mcRowLabel is the multicore table's mc.KV packed-stats row.
const mcRowLabel = "sharded KV, packed stats block (stride 16)"

// resultCell reads one numeric cell from a result line's report.
func resultCell(line []byte, exp, row, col string) (float64, error) {
	var ev serve.Event
	if err := json.Unmarshal(line, &ev); err != nil || ev.Result == nil {
		return 0, fmt.Errorf("unreadable result line for %s", exp)
	}
	return tableCell(ev.Result.Report, exp, row, col)
}

// tableCell finds the row whose leading cells join to row (space
// separated) in experiment exp, and parses its column col.
func tableCell(rep bench.Report, exp, row, col string) (float64, error) {
	for _, t := range rep.Experiments {
		if t.ID != exp {
			continue
		}
		ci := -1
		for i, h := range t.Header {
			if h == col {
				ci = i
			}
		}
		for _, r := range t.Rows {
			label := ""
			for i, c := range r {
				if i > 0 {
					label += " "
				}
				label += c
				if label == row && ci >= 0 && ci < len(r) {
					return strconv.ParseFloat(r[ci], 64)
				}
			}
		}
	}
	return 0, fmt.Errorf("no %q row with column %q in %s", row, col, exp)
}

// recordRequestSpans turns a request's timeline into spans: the
// request, and its client queue, admission, run and stream phases.
func recordRequestSpans(b *harness, t timing) {
	if t.result.IsZero() || t.accepted.IsZero() {
		return
	}
	req := t.due.UnixNano()
	root := b.spans.add("serve."+t.class, 0, req, t.due, t.end)
	b.spans.add("client.queue", root, req, t.due, t.sent)
	b.spans.add("serve.admit", root, req, t.sent, t.headers)
	b.spans.add("serve.run", root, req, t.accepted, t.result)
	b.spans.add("serve.stream", root, req, t.result, t.end)
}

// setServePhases reports the serve layer's per-phase medians for each
// class, each class's sample count, and how much longer a served
// request takes than the same work in-process.
func setServePhases(b *harness, all []timing, maxLate time.Duration) {
	var ratio []float64
	for _, t := range all {
		if t.ok && t.inProc > 0 {
			ratio = append(ratio, float64(t.result.Sub(t.sent))/float64(t.inProc))
		}
	}
	b.set("ladder.request_over_inproc", median(ratio))
	for _, class := range []string{"upload", "job"} {
		var admit, run, stream, over []float64
		for _, t := range all {
			if t.class != class || !t.ok {
				continue
			}
			admit = append(admit, ms(t.headers.Sub(t.sent)))
			run = append(run, ms(t.result.Sub(t.accepted)))
			stream = append(stream, ms(t.end.Sub(t.result)))
			over = append(over, ms(t.result.Sub(t.sent)-t.inProc))
		}
		b.set("serve."+class+".admit_ms", median(admit))
		b.set("serve."+class+".run_ms", median(run))
		b.set("serve."+class+".stream_ms", median(stream))
		b.set("serve."+class+".overhead_ms", median(over))
		b.set("serve."+class+".samples", float64(len(admit)))
	}
	b.set("serve.gen_late_ms", ms(maxLate))
}

// probeServe is the cclserve rung for workloads that do not run the
// server: a closed loop of a few uploads and jobs over one server.
func probeServe(b *harness) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ss, err := newServeSet(ctx, b.seed)
	if err != nil {
		return err
	}
	s, _, err := startServer(b)
	if err != nil {
		return err
	}
	defer func() {
		if err := s.stop(); err != nil {
			b.fail("cclserve drain: %v", err)
		}
	}()
	c := newClient()
	var all []timing
	for i := 0; i < 2*len(ss.uploads); i++ {
		t := ss.sendUpload(ctx, b, s, c, i)
		t.due = t.sent
		all = append(all, t)
	}
	for i := 0; i < len(ss.jobs); i++ {
		t := ss.sendJob(ctx, b, s, c, i)
		t.due = t.sent
		all = append(all, t)
	}
	b.attempted += int64(len(all))
	for _, t := range all {
		recordRequestSpans(b, t)
	}
	setServePhases(b, all, 0)
	return nil
}
