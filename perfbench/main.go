// Command perfbench is the repository benchmark. It runs one workload
// per process and prints, as the last line of standard output, one
// JSON object: whether every output check passed, how many operations
// were attempted and failed, and the metrics BENCHMARK.json names —
// the end-to-end metrics on an untraced run (-trace 0), the per-layer
// metrics on a traced run (-trace 1).
//
// Workloads (see README.md for why each exists):
//
//	layout-race  serving structures and mc.KV raced in-process
//	regen        the ccbench binary regenerating every experiment serially
//	serve        the cclserve binary under open-loop upload and job traffic
//
// run.sh builds the binaries and calls this program with -bin and -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// benchSpec is the part of BENCHMARK.json the program checks its
// output against, so the file and the code cannot drift apart.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// harness is the state of one benchmark process: its inputs, the output
// checks' tally, the metrics measured so far, and the span log.
type harness struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string // directory holding the ccbench and cclserve binaries
	out      string // directory for span files and the ccbench report

	attempted int64
	metrics   map[string]float64
	spans     *spanLog

	mu     sync.Mutex // guards failed and errs: serve's classes fail concurrently
	failed int64
	errs   []string
}

// fail records a failed operation with its diagnostic.
func (b *harness) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.errs) < 20 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (b *harness) set(name string, v float64) { b.metrics[name] = v }

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name: layout-race, regen or serve")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	bin := flag.String("bin", "", "directory holding the ccbench and cclserve binaries")
	out := flag.String("out", "", "directory for span files and the ccbench report")
	flag.Parse()
	if *bin == "" || *out == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -out, -seconds >= 1 and -trace 0|1 (use run.sh)")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == *workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}

	b := &harness{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		bin:     *bin, out: *out,
		metrics: map[string]float64{},
		spans:   newSpanLog(*trace == 1),
	}
	switch b.workload {
	case "layout-race":
		err = runRace(b)
	case "regen":
		err = runRegen(b)
	case "serve":
		err = runServe(b)
	}
	if err == nil && b.traced {
		err = runLadder(b)
	}
	if err == nil && b.traced {
		err = b.spans.write(filepath.Join(b.out, "spans", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}

	want := spec.EndToEnd
	if b.traced {
		want = spec.PerLayer
	}
	listed := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		listed[m.Name] = true
	}
	for name := range b.metrics {
		if !listed[name] {
			fmt.Fprintf(os.Stderr, "perfbench: %s: measured metric %s is not in BENCHMARK.json\n", b.workload, name)
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", b.workload, m.Name)
			return 1
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, e := range b.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && b.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return s, errors.New("BENCHMARK.json names no metrics")
	}
	return s, nil
}

// quantile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// childPeakRSSMB is an exited child's peak resident set in MB.
func childPeakRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return math.NaN()
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// clip shortens a diagnostic.
func clip(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 300 {
		return s[:300] + "..."
	}
	return s
}
