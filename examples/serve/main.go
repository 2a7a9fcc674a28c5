// Serve: the simulation server end to end, from a client's chair.
// Starts an in-process cclserve fleet (small on purpose, so its
// robustness machinery is easy to trigger), then walks through the
// protocol: a clean run, an injected fault landing as a typed
// failure record, a memory budget exceeded mid-run, admission control
// turning away an over-eager tenant with typed rejections, and
// finally a drain. The same server is `go run ./cmd/cclserve`; see
// DESIGN.md §12 for the architecture.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"ccl/internal/serve"
)

func main() {
	srv := serve.New(serve.Config{
		Shards:          2,
		WorkersPerShard: 1,
		DefaultTenant: serve.TenantConfig{
			RatePerSec: 2, // low on purpose: step 4 trips it
			Burst:      2,
			MaxActive:  2,
		},
		// Per-tenant overrides: the walkthrough's own tenant gets a
		// generous envelope so only step 4's "greedy" is throttled.
		Tenants: map[string]serve.TenantConfig{
			"demo": {RatePerSec: 100, Burst: 10, MaxActive: 8},
		},
	})
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.BaseContext = func(net.Listener) context.Context { return srv.BaseContext() }
	hs.Start()
	defer hs.Close()

	fmt.Println("== 1. a clean run streams progress and a result")
	submit(hs.URL, serve.Spec{
		Schema: serve.SpecSchema, Tenant: "demo",
		Experiments: []string{"table1"},
	})

	fmt.Println("\n== 2. an injected fault lands as a typed failure record")
	// arena-grow:1 fails the request's first simulated-memory growth.
	// The job it hits is recorded under the class of the failure the
	// fault simulates (out-of-memory) and marked injected; the
	// experiment's other jobs still run. Runs are deterministic, so
	// the request runs once: a retry would fail the same way.
	submit(hs.URL, serve.Spec{
		Schema: serve.SpecSchema, Tenant: "demo",
		Experiments: []string{"table2"},
		Fault:       "arena-grow:1",
	})

	fmt.Println("\n== 3. a memory budget bounds what a request may simulate")
	// 4 KiB cannot hold the Olden workloads: every job fails typed
	// ("budget-exceeded"), the request still completes with a report.
	submit(hs.URL, serve.Spec{
		Schema: serve.SpecSchema, Tenant: "demo",
		Experiments: []string{"table2"},
		BudgetBytes: 4096,
	})

	fmt.Println("\n== 4. admission control rejects overload, typed")
	for i := 0; i < 4; i++ {
		resp, err := post(hs.URL, serve.Spec{
			Schema: serve.SpecSchema, Tenant: "greedy",
			Experiments: []string{"table1"},
		})
		if err != nil {
			fmt.Println("   transport error:", err)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			drainBody(resp)
			fmt.Printf("   request %d: 200 OK\n", i+1)
			continue
		}
		var eb struct {
			Error string `json:"error"`
			Class string `json:"class"`
		}
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		fmt.Printf("   request %d: %d class=%s (Retry-After: %s)\n",
			i+1, resp.StatusCode, eb.Class, resp.Header.Get("Retry-After"))
	}

	fmt.Println("\n== 5. drain: admission stops, in-flight work finishes")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Println("   drain:", err)
	} else {
		fmt.Println("   drained clean")
	}
	resp, err := post(hs.URL, serve.Spec{
		Schema: serve.SpecSchema, Tenant: "demo", Experiments: []string{"table1"},
	})
	if err == nil {
		fmt.Printf("   post-drain submit: %d (typed 503: draining)\n", resp.StatusCode)
		resp.Body.Close()
	}
}

// post submits one spec.
func post(base string, sp serve.Spec) (*http.Response, error) {
	b, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	return http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(b))
}

// submit posts a spec and narrates its NDJSON stream.
func submit(base string, sp serve.Spec) {
	resp, err := post(base, sp)
	if err != nil {
		fmt.Println("   transport error:", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Printf("   rejected: %d\n", resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), serve.MaxSpecBytes)
	for sc.Scan() {
		var ev serve.Event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		switch ev.Event {
		case "accepted":
			fmt.Printf("   accepted (tenant %s, degraded=%v)\n", ev.Tenant, ev.Degraded)
		case "experiment":
			fmt.Printf("   experiment %s done (%d/%d)\n", ev.ID, ev.Done, ev.Total)
		case "result":
			r := ev.Result
			fmt.Printf("   result: %d table(s), %d failure(s)\n",
				len(r.Report.Experiments), len(r.Report.Failures))
			for _, f := range r.Report.Failures {
				fmt.Printf("     failure %s: class=%s injected=%v\n", f.Job, f.Class, f.Injected)
			}
		case "error":
			fmt.Printf("   stream error: %s (class=%s)\n", ev.Error, ev.Class)
		}
	}
}

// drainBody consumes a stream we don't care to narrate.
func drainBody(resp *http.Response) {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), serve.MaxSpecBytes)
	for sc.Scan() {
	}
	resp.Body.Close()
}
