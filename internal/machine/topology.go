// topology.go grows the machine model from one implicit hierarchy to
// an N-core topology: per-core private hierarchies (L1/L2), one
// shared last-level cache, and a MESI directory (internal/coherence)
// between them. Machine remains the single-core fast path — a
// Topology is what the multicore drivers (internal/mc), the 4C
// telemetry classifier, and the coherence oracle run on.
package machine

import (
	"fmt"

	"ccl/internal/cache"
	"ccl/internal/coherence"
	"ccl/internal/memsys"
)

// TopologyConfig describes an N-core machine: Cores private
// hierarchies (each an independent cache.Config), one shared
// last-level cache, and the coherence protocol's latency model.
type TopologyConfig struct {
	// Cores is the number of cores, in [1, 64].
	Cores int
	// Private is each core's private hierarchy. Its MemLatency field
	// is reinterpreted as the hop cost of a private miss reaching
	// the shared LLC (default 8 when zero).
	Private cache.Config
	// LLC is the shared last level. Its block size is the coherence
	// granule and must cover every private block size.
	LLC cache.LevelConfig
	// MemLatency is the DRAM penalty charged beyond the LLC.
	MemLatency int64
	// Coherence is the protocol latency model. BlockSize is forced
	// to the LLC block size; zero latencies take protocol defaults.
	Coherence coherence.Config
}

// withDefaults returns cfg with zero fields completed.
func (cfg TopologyConfig) withDefaults() TopologyConfig {
	if cfg.Private.MemLatency == 0 {
		cfg.Private.MemLatency = 8
	}
	cfg.Coherence.BlockSize = cfg.LLC.BlockSize
	cfg.Coherence = cfg.Coherence.Defaults()
	return cfg
}

// Validate reports a configuration error, if any. Defaults are
// applied first, so a config is judged as NewTopology would build it.
func (cfg TopologyConfig) Validate() error {
	cfg = cfg.withDefaults()
	if cfg.Cores < 1 || cfg.Cores > 64 {
		return fmt.Errorf("machine: topology cores %d outside [1, 64]", cfg.Cores)
	}
	if err := cfg.Private.Validate(); err != nil {
		return fmt.Errorf("machine: topology private hierarchy: %w", err)
	}
	if err := cfg.LLC.Validate(); err != nil {
		return fmt.Errorf("machine: topology LLC: %w", err)
	}
	if cfg.MemLatency <= 0 {
		return fmt.Errorf("machine: topology memory latency must be positive")
	}
	for _, l := range cfg.Private.Levels {
		if l.BlockSize > cfg.LLC.BlockSize {
			return fmt.Errorf("machine: topology: private level %q block size %d exceeds LLC block size %d (the coherence granule)",
				l.Name, l.BlockSize, cfg.LLC.BlockSize)
		}
	}
	if err := cfg.Coherence.Validate(); err != nil {
		return fmt.Errorf("machine: topology: %w", err)
	}
	return nil
}

// DefaultTopologyConfig returns a server-shaped cores-way topology:
// per-core 16 KB direct-mapped L1 (16-byte blocks) and 128 KB 2-way
// L2 (64-byte blocks), an 8-cycle hop to a shared 1 MB 8-way LLC
// (64-byte blocks, so the coherence granule is 64 bytes), and a
// 120-cycle DRAM penalty.
func DefaultTopologyConfig(cores int) TopologyConfig {
	return TopologyConfig{
		Cores: cores,
		Private: cache.Config{
			Levels: []cache.LevelConfig{
				{Name: "L1", Size: 16 << 10, Assoc: 1, BlockSize: 16, Latency: 1, WriteBack: true},
				{Name: "L2", Size: 128 << 10, Assoc: 2, BlockSize: 64, Latency: 6, WriteBack: true},
			},
			MemLatency: 8, // hop to the LLC
		},
		LLC:        cache.LevelConfig{Name: "LLC", Size: 1 << 20, Assoc: 8, BlockSize: 64, Latency: 18, WriteBack: true},
		MemLatency: 120,
	}
}

// AccessDetail reports what one coherence-granule sub-access did —
// the event record the oracle's reference model diffs against.
type AccessDetail struct {
	Core        int
	Addr        memsys.Addr
	Size        int64
	Store       bool
	PrivateMiss bool // missed every private level
	LLCMiss     bool // and then missed the shared LLC too
	Cycles      int64
	Coh         coherence.Action
}

// Topology is an N-core simulated machine: one shared arena, per-core
// private hierarchies, a shared LLC, and a MESI directory. Like every
// object in the stack it is confined to one goroutine; the multicore
// drivers (internal/mc) make interleaving explicit and deterministic
// instead of racing goroutines.
type Topology struct {
	Arena *memsys.Arena

	cfg    TopologyConfig
	priv   []*cache.Hierarchy
	llc    *cache.Hierarchy
	dir    *coherence.Directory
	cores  []Machine
	cycles []int64 // per-core total cycles (private + LLC + protocol)
	span   int64   // coherence granule = LLC block size
}

// NewTopology builds a topology from cfg with the default page size.
// It panics on an invalid configuration, like cache.New: topologies
// are built from trusted experiment setup code.
func NewTopology(cfg TopologyConfig) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	t := &Topology{
		Arena: memsys.NewArena(memsys.DefaultPageSize),
		cfg:   cfg,
		llc: cache.New(cache.Config{
			Levels:     []cache.LevelConfig{cfg.LLC},
			MemLatency: cfg.MemLatency,
		}),
		dir:    coherence.New(cfg.Cores, cfg.Coherence),
		cycles: make([]int64, cfg.Cores),
		span:   cfg.LLC.BlockSize,
	}
	t.priv = make([]*cache.Hierarchy, cfg.Cores)
	t.cores = make([]Machine, cfg.Cores)
	for i := range t.priv {
		t.priv[i] = cache.New(cfg.Private)
		t.dir.SetPort(i, t.priv[i])
		t.cores[i] = Machine{Arena: t.Arena, port: core{t, i}}
	}
	return t
}

// Config returns the (defaulted) topology configuration.
func (t *Topology) Config() TopologyConfig { return t.cfg }

// Cores returns the number of cores.
func (t *Topology) Cores() int { return len(t.priv) }

// Core returns core i's memory port: its typed accesses charge core
// i's caches and clock.
func (t *Topology) Core(i int) Mem { return &t.cores[i] }

// PrivateCache returns core i's private hierarchy, for attaching
// telemetry collectors and reading per-core stats.
func (t *Topology) PrivateCache(i int) *cache.Hierarchy { return t.priv[i] }

// LLC returns the shared last-level hierarchy.
func (t *Topology) LLC() *cache.Hierarchy { return t.llc }

// Directory returns the coherence directory.
func (t *Topology) Directory() *coherence.Directory { return t.dir }

// SetInvalidationHook forwards to the directory: f fires when core
// i's resident copy of a granule is invalidated by a remote store.
// Telemetry collectors use it (Collector.MarkInvalidated) so the next
// miss on that granule classifies as a coherence miss.
func (t *Topology) SetInvalidationHook(i int, f func(addr memsys.Addr, span int64)) {
	t.dir.SetInvalidationHook(i, f)
}

// CoreCycles returns core i's accumulated cycles: private-hierarchy
// time plus its share of LLC and coherence-protocol latency.
func (t *Topology) CoreCycles(i int) int64 { return t.cycles[i] }

// MaxCycles returns the makespan — the busiest core's cycle count.
func (t *Topology) MaxCycles() int64 {
	var max int64
	for _, c := range t.cycles {
		if c > max {
			max = c
		}
	}
	return max
}

// Access simulates a demand access by core on the shared memory
// system and returns the cycles charged to that core. Prefetches are
// not routed through topologies (they would bypass the directory);
// use the single-core Machine for prefetch experiments.
func (t *Topology) Access(core int, addr memsys.Addr, size int64, kind cache.AccessKind) int64 {
	cycles, _ := t.access(core, addr, size, kind, false, nil)
	return cycles
}

// AccessDetailed is Access plus a per-granule event record appended
// to buf — the oracle's differential hook.
func (t *Topology) AccessDetailed(core int, addr memsys.Addr, size int64, kind cache.AccessKind, buf []AccessDetail) (int64, []AccessDetail) {
	return t.access(core, addr, size, kind, true, buf)
}

// access splits the request at coherence-granule boundaries so each
// sub-access triggers exactly one directory transaction, then runs
// each granule through protocol -> private hierarchy -> shared LLC.
func (t *Topology) access(core int, addr memsys.Addr, size int64, kind cache.AccessKind, detailed bool, buf []AccessDetail) (int64, []AccessDetail) {
	if kind == cache.PrefetchRead {
		panic("machine: topology access with PrefetchRead; prefetches are single-core only")
	}
	if size <= 0 {
		panic("machine: topology access with non-positive size")
	}
	mask := t.span - 1
	var total int64
	for size > 0 {
		a := addr
		n := t.span - (int64(addr) & mask) // bytes left in this granule
		if n > size {
			n = size
		}
		c, d := t.accessGranule(core, a, n, kind)
		total += c
		if detailed {
			buf = append(buf, d)
		}
		addr = addr.Add(n)
		size -= n
	}
	t.cycles[core] += total
	return total, buf
}

// accessGranule handles one access contained in a single coherence
// granule: directory transaction, private descent, LLC on a full
// private miss, and a MESI stamp on the (re)installed lines.
func (t *Topology) accessGranule(core int, addr memsys.Addr, size int64, kind cache.AccessKind) (int64, AccessDetail) {
	d := AccessDetail{Core: core, Addr: addr, Size: size, Store: kind == cache.Store}
	d.Coh = t.dir.Transact(core, addr, d.Store)

	h := t.priv[core]
	before := h.MemAccesses()
	cycles := h.Access(addr, size, kind)
	d.PrivateMiss = h.MemAccesses() > before

	if d.PrivateMiss {
		// Fetch the whole granule through the shared LLC once,
		// regardless of how many private sub-blocks missed.
		base := memsys.Addr(int64(addr) &^ (t.span - 1))
		llcBefore := t.llc.MemAccesses()
		cycles += t.llc.Access(base, t.span, kind)
		d.LLCMiss = t.llc.MemAccesses() > llcBefore
	}

	// Stamp the granted state on whatever lines are now resident so
	// per-line introspection matches the directory's view.
	base := memsys.Addr(int64(addr) &^ (t.span - 1))
	h.SetBlockState(base, t.span, cache.MESI(d.Coh.Granted))

	cycles += d.Coh.ExtraLatency
	d.Cycles = cycles
	return cycles, d
}

// Tick charges n cycles of compute work to core i.
func (t *Topology) Tick(i int, n int64) {
	t.priv[i].Tick(n)
	t.cycles[i] += n
}

// core is the port of one core of a Topology: it charges that core's
// caches and clock.
type core struct {
	t  *Topology
	id int
}

func (c core) access(a memsys.Addr, size int64, kind cache.AccessKind) {
	c.t.Access(c.id, a, size, kind)
}

func (c core) tick(n int64) { c.t.Tick(c.id, n) }
