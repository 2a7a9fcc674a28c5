// Command ccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ccbench [-full] [-list] [-json path] [-profile dir] [-ndjson] [-parallel n] [-fault point[:n],...] [experiment ...]
//
// Run ccbench -list for the available experiment ids; "all" (the
// default) runs every experiment in paper order. -full runs
// paper-scale inputs; expect minutes instead of seconds. Each
// experiment's machine and inputs at both scales come from one table,
// internal/bench/scale.go, and under -full three groups still run on
// scaled machines: RADIANCE (fig6, metrics) and ablate-block on §4.1's
// machine scaled 16×, and the Olden jobs on Table 1's RSIM scaled 8×.
// -json additionally writes every table that ran as a
// machine-readable report (schema in DESIGN.md "Telemetry"), the
// format committed BENCH_*.json files use. Flags may appear before or
// after experiment ids.
//
// -profile dir exports every per-workload field profile the run
// produced (today: the fieldprof experiment) into dir, one
// <workload>.json in the ccl-profile/v1 schema plus one
// <workload>.pb.gz in pprof's profile.proto format, readable with
// `go tool pprof -top dir/<workload>.pb.gz`. With -profile and no
// experiment ids, the run defaults to the fieldprof experiment
// instead of "all". -ndjson replaces the human progress lines on
// stderr with one JSON object per line (events "experiment" and
// "run"), so long runs are machine-observable live; tables still
// render to stdout.
//
// -parallel bounds the worker pool the experiments' jobs run on; the
// default is GOMAXPROCS and -parallel 1 is the serial reference run.
// Every job builds its workloads from fixed seeds inside its own run
// context (internal/sim), so the tables — and the -json report, apart
// from its wall-time fields — are identical at any parallelism.
// Progress lines go to stderr as experiments finish; completed tables
// stream to stdout in paper order.
//
// -fault injects deterministic failures (see internal/faults) on a
// comma-separated "point[:n]" schedule, the syntax cclserve's spec
// "fault" field shares: "arena-grow:3" fails the 3rd simulated-memory
// growth, "arena-grow:1,arena-grow:4" the 1st and the 4th; n defaults
// to 1 and is at most 1<<20. arena-grow is the only point ccbench
// can arm. The injector is armed afresh on each job's run context, so
// the fault fires at the Nth growth within every job,
// deterministically at any -parallel setting (unlike a process-wide
// counter, which would make the victim depend on scheduling). Jobs
// that hit the fault are recorded as structured failure entries in
// the JSON report — the run itself still exits 0, because a sweep
// that measures robustness must outlive the failures it provokes.
// Ctrl-C interrupts gracefully: no new jobs start, running jobs
// drain, and completed experiments are flushed to the -json report
// with its "interrupted" marker set. A second Ctrl-C skips the drain
// and exits immediately, so a hung job can never hold the shutdown
// hostage (internal/drain).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ccl/internal/bench"
	"ccl/internal/drain"
	"ccl/internal/faults"
	"ccl/internal/profile"
	"ccl/internal/sim"
)

// reorderArgs moves flags (and the value of flags that take one) in
// front of positional arguments, so `ccbench table1 -json out.json`
// works: the flag package stops at the first positional otherwise.
// A value flag with nothing after it is an error — without the check,
// reordering would hand the flag a positional as its value.
func reorderArgs(args []string) ([]string, error) {
	valueFlags := map[string]bool{
		"-json": true, "--json": true,
		"-fault": true, "--fault": true,
		"-parallel": true, "--parallel": true,
		"-profile": true, "--profile": true,
	}
	var flags, pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if len(a) > 1 && a[0] == '-' {
			flags = append(flags, a)
			if valueFlags[a] {
				if i+1 >= len(args) {
					return nil, fmt.Errorf("flag needs an argument: %s", a)
				}
				i++
				flags = append(flags, args[i])
			}
			continue
		}
		pos = append(pos, a)
	}
	return append(flags, pos...), nil
}

func main() {
	full := flag.Bool("full", false, "run paper-scale workloads (slow)")
	list := flag.Bool("list", false, "list available experiments and exit")
	jsonPath := flag.String("json", "", "also write the results as a JSON report to `path`")
	profileDir := flag.String("profile", "", "export field profiles (ccl-profile/v1 JSON + pprof .pb.gz) into `dir`")
	ndjson := flag.Bool("ndjson", false, "stream progress to stderr as JSON lines instead of human text")
	fault := flag.String("fault", "", "inject faults on the comma-separated `point[:n],...` schedule (e.g. arena-grow:3); failures are recorded, not fatal")
	parallel := flag.Int("parallel", 0, "worker pool size; 0 means GOMAXPROCS, 1 is strictly serial")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccbench [-full] [-list] [-json path] [-profile dir] [-ndjson] [-parallel n] [-fault point[:n],...] [experiment ...]\navailable: all %v\n", bench.IDs())
	}
	args, err := reorderArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}

	if *list {
		for _, sp := range bench.Registry() {
			fmt.Printf("%-16s %s\n", sp.ID, sp.Desc)
		}
		return
	}

	newSim := sim.New
	if *fault != "" {
		// The schedule arms each job's run context (ArmSim); ccbench
		// accepts arena-grow only, and the tests sweep place-cluster.
		sched, err := faults.ParseSchedule(*fault, faults.ArenaGrow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: -fault: %v\n", err)
			os.Exit(2)
		}
		newSim = func() *sim.Sim {
			s := sim.New()
			sched.Injector().ArmSim(s)
			return s
		}
	}

	ids := flag.Args()
	if len(ids) == 0 {
		if *profileDir != "" {
			// Profiling without explicit ids means the profiler
			// showcase, not a full paper regeneration.
			ids = []string{"fieldprof"}
		} else {
			ids = []string{"all"}
		}
	}

	var specs []bench.Spec
	for _, id := range ids {
		if id == "all" {
			specs = append(specs, bench.Registry()...)
			continue
		}
		sp, ok := bench.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q\navailable: all %v\n(run ccbench -list for descriptions)\n", id, bench.IDs())
			os.Exit(2)
		}
		specs = append(specs, sp)
	}

	// SIGINT cancels the context; the pool stops issuing new jobs,
	// running jobs drain, and the partial report — every experiment
	// that completed, partial tables marked interrupted — still
	// flushes to -json. A second SIGINT force-exits: a hung job must
	// not be able to block the drain forever.
	ctx, stop := drain.Context(context.Background(), func() {
		fmt.Fprintln(os.Stderr, "ccbench: second interrupt, exiting without drain")
		os.Exit(130)
	}, os.Interrupt)
	defer stop()

	rep := bench.Run(ctx, specs, bench.Options{
		Full:     *full,
		Parallel: *parallel,
		NewSim:   newSim,
		OnProgress: func(p bench.Progress) {
			if *ndjson {
				emitNDJSON(os.Stderr, map[string]any{
					"event": "experiment", "id": p.ID,
					"done": p.Done, "total": p.Total,
					"jobs": p.Jobs, "failed": p.Failed, "skipped": p.Skipped,
					"wall_us": p.Wall.Microseconds(),
				})
				return
			}
			if p.Skipped == p.Jobs {
				fmt.Fprintf(os.Stderr, "ccbench: [%d/%d] %s skipped (interrupted)\n", p.Done, p.Total, p.ID)
				return
			}
			fmt.Fprintf(os.Stderr, "ccbench: [%d/%d] %s done (%d job(s), %v)",
				p.Done, p.Total, p.ID, p.Jobs, p.Wall.Round(time.Millisecond))
			if p.Failed > 0 {
				fmt.Fprintf(os.Stderr, ", %d failed", p.Failed)
			}
			if p.Skipped > 0 {
				fmt.Fprintf(os.Stderr, ", %d skipped", p.Skipped)
			}
			fmt.Fprintln(os.Stderr)
		},
		OnTable: func(t bench.Table, wall time.Duration) {
			t.Render(os.Stdout)
			fmt.Printf("  (%s in %v)\n\n", t.ID, wall.Round(time.Millisecond))
		},
	})

	for _, f := range rep.Failures {
		where := f.Experiment
		if f.Job != "" {
			where = f.Job
		}
		fmt.Fprintf(os.Stderr, "ccbench: %s failed (%s): %s\n", where, f.Class, f.Error)
	}
	if *ndjson {
		emitNDJSON(os.Stderr, map[string]any{
			"event": "run", "experiments": len(rep.Experiments),
			"failures": len(rep.Failures), "interrupted": rep.Interrupted,
		})
	}

	if *profileDir != "" {
		n, err := writeProfiles(*profileDir, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			os.Exit(1)
		}
		if n == 0 {
			fmt.Fprintf(os.Stderr, "ccbench: -profile %s: no experiment produced field profiles (try fieldprof)\n", *profileDir)
		} else {
			fmt.Printf("wrote %d field profile(s) (%s JSON + pprof .pb.gz) to %s\n", n, profile.Schema, *profileDir)
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteReport(f, rep); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "ccbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: closing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote JSON report (%s) to %s\n", bench.ReportSchema, *jsonPath)
	}
	if rep.Interrupted {
		fmt.Fprintln(os.Stderr, "ccbench: interrupted; partial results flushed")
	}
}

// emitNDJSON writes one machine-readable progress line. Marshaling a
// map keeps the schema flexible; encoding/json sorts the keys, so the
// lines are deterministic.
func emitNDJSON(w *os.File, obj map[string]any) {
	b, err := json.Marshal(obj)
	if err != nil {
		fmt.Fprintf(w, `{"event":"error","error":%q}`+"\n", err.Error())
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}

// writeProfiles exports every per-workload profile in the report into
// dir: <workload>.json (ccl-profile/v1) and <workload>.pb.gz
// (profile.proto, gzip). Workloads are written in sorted order so the
// directory contents are reproducible; the count of workloads written
// is returned.
func writeProfiles(dir string, rep bench.Report) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, t := range rep.Experiments {
		names := make([]string, 0, len(t.Profiles))
		for name := range t.Profiles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p := t.Profiles[name]
			if err := writeProfileFile(filepath.Join(dir, name+".json"), func(w io.Writer) error {
				return profile.WriteJSON(w, p)
			}); err != nil {
				return n, err
			}
			if err := writeProfileFile(filepath.Join(dir, name+".pb.gz"), p.WritePprof); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// writeProfileFile creates path and streams one export into it,
// surfacing close errors (the gzip trailer lands on Close's flush).
func writeProfileFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
