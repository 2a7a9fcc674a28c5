// Package coherence implements a directory-based MESI protocol over
// the per-core private hierarchies of a machine.Topology.
//
// The directory tracks one state per (core, coherence granule), where
// the granule is the shared last-level cache's block size — the unit
// at which real coherence protocols operate and the unit at which
// false sharing happens (paper motivation: structure layout can cause
// or cure exactly these misses). Every demand access first consults
// the directory (Transact); the directory snoops the other cores'
// private caches through the Port seam (cache.Hierarchy implements it
// directly), invalidating or downgrading remote copies and charging
// the configured latencies. The directory is the only record of
// coherence state: a private cache's lines carry none, and a dropped
// resident copy reaches telemetry through the cache's own observer
// (cache.Observer.OnInvalidate).
//
// Two deliberate simplifications, mirrored exactly by the oracle's
// reference model (internal/oracle):
//
//   - Silent evictions: a private cache that evicts a clean block does
//     not notify the directory, so directory state can say a core
//     holds a copy it has already dropped. The resulting spurious
//     invalidations are no-ops at the cache (Invalidate of an absent
//     granule reports no copy) and the protocol stays correct — this
//     matches sparse-directory behavior in real machines.
//
//   - No back-invalidation: the shared LLC is non-inclusive, so an
//     LLC eviction leaves private copies alone.
//
// A Directory is not safe for concurrent use: topologies are driven
// by one goroutine per run, with interleaving made explicit by the
// drivers (internal/mc) so results are deterministic.
package coherence

import (
	"fmt"
	"math/bits"

	"ccl/internal/memsys"
)

// State is a directory-side MESI state for one core's copy of one
// coherence granule.
type State uint8

const (
	// Invalid: the core holds no copy (or an invalidated one).
	Invalid State = iota
	// Shared: a clean copy other cores may also hold.
	Shared
	// Exclusive: the only cached copy, clean.
	Exclusive
	// Modified: the only cached copy, dirty.
	Modified
)

// String returns the conventional one-letter state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Config sets the protocol's granule and latency model. The zero
// value is completed by Defaults.
type Config struct {
	// BlockSize is the coherence granule in bytes, a power of two —
	// a topology sets it to its shared LLC's block size.
	BlockSize int64
	// SnoopLatency is charged once per directory transaction (a
	// miss, upgrade, or RFO that consults the other cores).
	SnoopLatency int64
	// InvalidateLatency is charged per remote core whose copy is
	// invalidated by a store.
	InvalidateLatency int64
	// WritebackLatency is charged when a transaction forces a remote
	// Modified copy back to memory (read downgrade or invalidation).
	WritebackLatency int64
}

// Defaults fills zero fields with the default latency model: 3-cycle
// snoop, 8 cycles per invalidation, 20 cycles per forced writeback.
func (c Config) Defaults() Config {
	if c.SnoopLatency == 0 {
		c.SnoopLatency = 3
	}
	if c.InvalidateLatency == 0 {
		c.InvalidateLatency = 8
	}
	if c.WritebackLatency == 0 {
		c.WritebackLatency = 20
	}
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("coherence: block size %d is not a positive power of two", c.BlockSize)
	}
	if c.SnoopLatency < 0 || c.InvalidateLatency < 0 || c.WritebackLatency < 0 {
		return fmt.Errorf("coherence: latencies must be non-negative")
	}
	return nil
}

// Port is the per-core private-cache seam the directory drives.
// *cache.Hierarchy satisfies it (cache/coherent.go); tests use fakes.
type Port interface {
	// Invalidate drops every copy of [addr, addr+span), reporting
	// whether any copy was resident and whether any was dirty.
	Invalidate(addr memsys.Addr, span int64) (valid, dirty bool)
	// Downgrade clears the dirty bits of copies of [addr, addr+span)
	// (the directory records the demotion to Shared), reporting
	// whether any was dirty.
	Downgrade(addr memsys.Addr, span int64) (dirty bool)
}

// Stats counts protocol traffic.
type Stats struct {
	Transactions      int64 // directory transactions (bus uses)
	SharedGrants      int64 // read misses granted Shared
	ExclusiveGrants   int64 // read misses granted Exclusive
	RFOs              int64 // store misses (read-for-ownership)
	Upgrades          int64 // stores hitting a Shared copy
	InvalidationsSent int64 // invalidation messages to remote cores
	CopiesInvalidated int64 // remote copies actually dropped (resident)
	ForcedWritebacks  int64 // remote Modified copies flushed
	CoherenceMisses   int64 // misses to a block invalidated while resident
	ExtraCycles       int64 // total latency charged by the protocol
}

// Action reports what one Transact did, for cycle accounting and for
// the oracle's event-by-event diff.
type Action struct {
	// Granted is the requesting core's state after the transaction.
	Granted State
	// Bus reports whether a directory transaction occurred (false
	// for hits that need no protocol work).
	Bus bool
	// ExtraLatency is the protocol cycles to charge the requester.
	ExtraLatency int64
	// Invalidated is a bitmask of cores whose resident copy was
	// dropped by this transaction.
	Invalidated uint64
	// ForcedWB reports that a remote Modified copy was flushed.
	ForcedWB bool
	// CoherenceMiss reports that the requesting core lost its copy
	// of this granule to a remote store since it last held it — the
	// 4C classifier's "+coherence" class.
	CoherenceMiss bool
}

// The state table is paged like internal/lru's index: a page covers
// pageGranules consecutive granules and is allocated when one of them
// is first touched. Pages of granules in [0, 2^29) hang off a
// directory slice; any other granule's page goes through a map.
const (
	pageBits     = 12
	pageGranules = 1 << pageBits
	pageMask     = pageGranules - 1
	dirPages     = 1 << 17
)

// page is the state of pageGranules consecutive granules.
type page struct {
	// states is granule-major: granule i's per-core states are
	// states[i*cores : (i+1)*cores], so a snoop reads one run of bytes.
	states []State
	// pending has bit c of granule i set when core c's copy was
	// invalidated while resident: core c's next transaction on the
	// granule is a coherence miss.
	pending [pageGranules]uint64
}

// Directory is the MESI state table plus the snoop fan-out. Build
// with New, register each core's Port, then route every demand access
// through Transact before the private cache sees it.
type Directory struct {
	cfg   Config
	shift uint
	ports []Port
	dir   []*page         // pages of granules [0, 2^29)
	far   map[int64]*page // pages of every other granule
	stats Stats
}

// New builds a directory for cores cores. Panics on invalid
// configuration or cores outside [1, 64] (the Action bitmask width):
// directories are built from trusted topology setup code.
func New(cores int, cfg Config) *Directory {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cores < 1 || cores > 64 {
		panic(fmt.Sprintf("coherence: cores %d outside [1, 64]", cores))
	}
	return &Directory{
		cfg:   cfg,
		shift: uint(bits.TrailingZeros64(uint64(cfg.BlockSize))),
		ports: make([]Port, cores),
	}
}

// Config returns the directory's (defaulted) configuration.
func (d *Directory) Config() Config { return d.cfg }

// Cores returns the number of cores the directory tracks.
func (d *Directory) Cores() int { return len(d.ports) }

// SetPort registers core i's private-cache seam.
func (d *Directory) SetPort(i int, p Port) { d.ports[i] = p }

// Stats returns a copy of the accumulated protocol counters.
func (d *Directory) Stats() Stats { return d.stats }

// State returns core's directory state for addr's granule.
func (d *Directory) State(core int, addr memsys.Addr) State {
	g := int64(addr) >> d.shift
	p := d.lookup(g >> pageBits)
	if p == nil {
		return Invalid
	}
	return p.states[int(g&pageMask)*len(d.ports)+core]
}

// lookup returns page num, or nil when no granule in it was touched.
func (d *Directory) lookup(num int64) *page {
	if uint64(num) < uint64(len(d.dir)) {
		return d.dir[num]
	}
	if uint64(num) < dirPages {
		return nil
	}
	return d.far[num]
}

// touch returns page num, allocating it on first touch.
func (d *Directory) touch(num int64) *page {
	if p := d.lookup(num); p != nil {
		return p
	}
	p := &page{states: make([]State, pageGranules*len(d.ports))}
	if uint64(num) < dirPages {
		if n := num + 1 - int64(len(d.dir)); n > 0 {
			d.dir = append(d.dir, make([]*page, n)...)
		}
		d.dir[num] = p
		return p
	}
	if d.far == nil {
		d.far = make(map[int64]*page)
	}
	d.far[num] = p
	return p
}

// granule returns the granule index and base address covering addr.
func (d *Directory) granule(addr memsys.Addr) (int64, memsys.Addr) {
	g := int64(addr) >> d.shift
	return g, memsys.Addr(g << d.shift)
}

// Transact routes one demand access (store=false for loads) through
// the protocol before the private cache is consulted. addr may be any
// address inside the granule; the access must not cross a granule
// boundary (the topology splits first). Remote cores are visited in
// ascending index order, so the snoop fan-out is deterministic.
func (d *Directory) Transact(core int, addr memsys.Addr, store bool) Action {
	g, base := d.granule(addr)
	pg := d.touch(g >> pageBits)
	i, n := int(g&pageMask), len(d.ports)
	states := pg.states[i*n : i*n+n]
	st := states[core]
	var act Action

	// A miss (Invalid) consumes a pending invalidated-while-resident
	// mark: the copy this core lost to a remote store is why it is
	// about to miss.
	if bit := uint64(1) << uint(core); st == Invalid && pg.pending[i]&bit != 0 {
		pg.pending[i] &^= bit
		act.CoherenceMiss = true
		d.stats.CoherenceMisses++
	}

	if !store {
		if st != Invalid {
			act.Granted = st
			return act
		}
		// Read miss: snoop, force writeback of a remote M copy,
		// demote remote E/M to S, grant S if anyone shares else E.
		act.Bus = true
		act.ExtraLatency = d.cfg.SnoopLatency
		granted := Exclusive
		for p, ps := range states {
			if p == core || ps == Invalid {
				continue
			}
			granted = Shared
			if ps == Modified {
				if d.ports[p] != nil {
					d.ports[p].Downgrade(base, d.cfg.BlockSize)
				}
				act.ForcedWB = true
				act.ExtraLatency += d.cfg.WritebackLatency
				d.stats.ForcedWritebacks++
			}
			states[p] = Shared
		}
		states[core] = granted
		act.Granted = granted
		d.stats.Transactions++
		if granted == Shared {
			d.stats.SharedGrants++
		} else {
			d.stats.ExclusiveGrants++
		}
		d.stats.ExtraCycles += act.ExtraLatency
		return act
	}

	// Store.
	switch st {
	case Modified:
		act.Granted = Modified
		return act
	case Exclusive:
		// Silent E -> M upgrade: no transaction needed.
		states[core] = Modified
		act.Granted = Modified
		return act
	}

	// Shared upgrade or Invalid RFO: invalidate every remote copy.
	act.Bus = true
	act.ExtraLatency = d.cfg.SnoopLatency
	for p, ps := range states {
		if p == core || ps == Invalid {
			continue
		}
		d.stats.InvalidationsSent++
		act.ExtraLatency += d.cfg.InvalidateLatency
		resident, dirty := false, false
		if d.ports[p] != nil {
			resident, dirty = d.ports[p].Invalidate(base, d.cfg.BlockSize)
		}
		if dirty {
			act.ForcedWB = true
			act.ExtraLatency += d.cfg.WritebackLatency
			d.stats.ForcedWritebacks++
		}
		if resident {
			act.Invalidated |= 1 << uint(p)
			d.stats.CopiesInvalidated++
			pg.pending[i] |= 1 << uint(p)
		}
		states[p] = Invalid
	}
	states[core] = Modified
	act.Granted = Modified
	d.stats.Transactions++
	if st == Shared {
		d.stats.Upgrades++
	} else {
		d.stats.RFOs++
	}
	d.stats.ExtraCycles += act.ExtraLatency
	return act
}
