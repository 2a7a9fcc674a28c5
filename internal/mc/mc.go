// Package mc contains the multicore workload drivers: deterministic
// interleaved executions of concurrent access patterns over a
// machine.Topology.
//
// The paper's layout techniques are framed for uniprocessor caches,
// but the same "structure layout determines miss class" argument has
// a multicore twin: fields written by different cores that share a
// coherence granule cause invalidation ping-pong (false sharing), and
// the cure is again layout — padding or splitting the structure so
// concurrently-written fields land in different granules. The drivers
// here make that measurable with the 4C classifier:
//
//   - Counters: per-core counters packed into one granule versus
//     padded apart — the canonical false-sharing microbenchmark;
//   - KV: per-core hash shards (data-parallel, no sharing) whose
//     shared stats block is the only contended structure;
//   - TreeSearch: a shared read-only tree, the contrast case where
//     sharing is harmless (Shared grants, no invalidations).
//
// The classifier is an ordinary telemetry collector on each core's
// private cache (AttachCollectors): the cache reports every resident
// copy a remote store invalidates to its observer, so no extra wiring
// is needed.
//
// Everything is single-goroutine: cores are Workers stepped by an
// explicit round-robin schedule, so every run is reproducible and the
// oracle's determinism guarantees extend to whole experiments. No Go
// concurrency, no races — "parallelism" is simulated time, as
// everywhere else in this repository.
package mc

import (
	"ccl/internal/coherence"
	"ccl/internal/machine"
	"ccl/internal/telemetry"
)

// Worker performs one unit of a core's work and reports whether more
// remains. A Worker must eventually return false.
type Worker func() bool

// RoundRobin steps the workers in index order, skipping finished
// ones, until all are done. It returns the total step count.
func RoundRobin(workers ...Worker) int64 {
	var steps int64
	live := len(workers)
	done := make([]bool, len(workers))
	for live > 0 {
		for i, w := range workers {
			if done[i] {
				continue
			}
			steps++
			if !w() {
				done[i] = true
				live--
			}
		}
	}
	return steps
}

// AttachCollectors attaches one telemetry collector to each core's
// private cache. The cache reports the invalidations a remote store
// causes to its observer, so misses classify under the full 4C model.
// Call before driving any accesses.
func AttachCollectors(tp *machine.Topology) []*telemetry.Collector {
	cols := make([]*telemetry.Collector, tp.Cores())
	for i := range cols {
		cols[i] = telemetry.Attach(tp.PrivateCache(i))
	}
	return cols
}

// Result is the common outcome of a driver run: simulated time,
// protocol traffic, and the per-core 4C miss classification.
type Result struct {
	// Steps is the number of worker steps the schedule executed.
	Steps int64
	// Makespan is the busiest core's cycle count.
	Makespan int64
	// CoreCycles is each core's cycle count.
	CoreCycles []int64
	// Coh is the directory's protocol traffic.
	Coh coherence.Stats
	// Reports is each core's telemetry report (4C classes, regions).
	Reports []telemetry.Report
}

// collect assembles a Result after a run.
func collect(tp *machine.Topology, steps int64, cols []*telemetry.Collector) Result {
	r := Result{Steps: steps, Makespan: tp.MaxCycles(), Coh: tp.Directory().Stats()}
	for i := 0; i < tp.Cores(); i++ {
		r.CoreCycles = append(r.CoreCycles, tp.CoreCycles(i))
	}
	for _, c := range cols {
		r.Reports = append(r.Reports, c.Report())
	}
	return r
}

// CoherenceMisses sums the coherence-class misses across all cores
// and levels — the number layout padding is supposed to drive to
// zero.
func (r Result) CoherenceMisses() int64 {
	var n int64
	for _, rep := range r.Reports {
		for _, lr := range rep.Levels {
			n += lr.Coherence
		}
	}
	return n
}
