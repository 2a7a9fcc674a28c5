package machine

import (
	"ccl/internal/cache"
	"ccl/internal/memsys"
	"ccl/internal/trace"
)

// Mem is the typed part of the memory port that code holding any
// port calls: a Machine, a topology core, the uncharged view or a
// recorder.
type Mem interface {
	Load32(a memsys.Addr) uint32
	Store32(a memsys.Addr, v uint32)
	LoadAddr(a memsys.Addr) memsys.Addr
	StoreAddr(a memsys.Addr, v memsys.Addr)
	LoadInt(a memsys.Addr) int64
	StoreInt(a memsys.Addr, v int64)
	Tick(n int64)
}

// charger is where a core, uncharged or recording Machine sends the
// charges a plain Machine sends to its Cache.
type charger interface {
	access(a memsys.Addr, size int64, kind cache.AccessKind)
	tick(n int64)
}

// Uncharged returns a port that reads and writes arena directly: no
// cache is charged and no cycles pass. Invariant checks and test
// oracles use it so verification does not perturb the measured
// stream.
func Uncharged(arena *memsys.Arena) Mem { return &Machine{Arena: arena, port: uncharged{}} }

type uncharged struct{}

func (uncharged) access(memsys.Addr, int64, cache.AccessKind) {}
func (uncharged) tick(int64)                                  {}

// Recorder is a Machine that records each demand access before
// charging it to the machine it wraps, so a run can be replayed
// through the differential oracle (oracle.Diff) exactly as the
// workload issued it. Prefetches and ticks are charged but not
// recorded: a trace holds demand accesses only.
type Recorder struct {
	*Machine
	inner *Machine
	recs  []trace.Record
}

// Record wraps m. The Recorder's Machine shares m's Arena, Cache and
// PointerPrefetch, so any workload run on it in place of m — for
// example trees.Build(rec.Machine, ...) — is charged as on m and
// recorded.
func Record(m *Machine) *Recorder {
	r := &Recorder{inner: m}
	r.Machine = &Machine{Arena: m.Arena, Cache: m.Cache, PointerPrefetch: m.PointerPrefetch, port: r}
	return r
}

func (r *Recorder) access(a memsys.Addr, size int64, kind cache.AccessKind) {
	k := trace.Load
	if kind == cache.Store {
		k = trace.Store
	}
	r.recs = append(r.recs, trace.Record{Kind: k, Addr: a, Size: size})
	r.inner.charge(a, size, kind)
}

func (r *Recorder) tick(n int64) { r.inner.Tick(n) }

// Trace returns the recorded stream paired with the machine's
// geometry, ready for oracle.Diff.
func (r *Recorder) Trace() trace.Trace {
	return trace.Trace{Config: r.Cache.Config(), Records: r.recs}
}
