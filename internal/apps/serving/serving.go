// Package serving is the traffic-shaped workload family over the
// simulated heap: an open-addressing key/value store (KV), an
// intrusive LRU cache (LRU), and a cache-line-aligned d-ary heap
// priority queue (PQueue), each with tunable layout and placement so
// the ccmalloc clustering and coloring machinery can be raced against
// conventional allocation under skewed request streams.
//
// The paper's benchmarks are scientific codes; these structures model
// the hot path of a web-serving tier instead — hash probes, recency
// maintenance, and timer management hammered by Zipfian-distributed
// keys (Zipf). Every runtime access goes through a machine.Mem, so
// the same operation code runs charged against a machine.Machine
// during measurement, uncharged against the raw arena for invariant
// checks (machine.Uncharged), or recorded for oracle replay
// (machine.Record).
//
// Layout variants follow the conventions of internal/split and
// internal/layout: AoS entries co-locate key metadata with payloads,
// hot/cold splitting segregates the probe-hot header words from the
// payload bytes, ccmalloc placement hint-chains allocations into
// shared cache blocks, and coloring confines the hot set to a
// reserved stripe of the last-level cache.
package serving

import (
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// ArenaMem, TraceRecorder and NewTraceRecorder are the machine port
// under the names the benchmark in perfbench/ calls.

// ArenaMem returns machine.Uncharged(a).
func ArenaMem(a *memsys.Arena) machine.Mem { return machine.Uncharged(a) }

// TraceRecorder is machine.Recorder.
type TraceRecorder = machine.Recorder

// NewTraceRecorder returns machine.Record(m).
func NewTraceRecorder(m *machine.Machine) *TraceRecorder { return machine.Record(m) }
