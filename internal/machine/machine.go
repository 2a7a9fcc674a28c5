// Package machine binds a simulated address space (memsys.Arena) to a
// cache hierarchy (cache.Hierarchy). It is the substrate every
// benchmark in this repository runs on: typed loads and stores both
// move data in the arena and charge the cache simulator, so a
// structure's layout directly determines its measured performance —
// the property the paper's techniques exploit.
//
// *Machine is the one memory port. Its typed and bulk accessors are
// the only code that pairs an arena access with a charge, and every
// charge takes one step: to Cache, or to the port of one of three
// other kinds of Machine built here — a topology core (Topology.Core),
// the uncharged arena view (Uncharged), or a trace recorder (Record).
// Code that must run on any of them holds a Mem.
package machine

import (
	"ccl/internal/cache"
	"ccl/internal/memsys"
)

// Machine is a simulated uniprocessor memory system.
type Machine struct {
	Arena *memsys.Arena
	Cache *cache.Hierarchy

	// PointerPrefetch models the paper's hardware prefetching
	// baseline — "prefetching all loads and stores currently in the
	// reorder buffer" — by issuing a free prefetch for every pointer
	// value the program loads, as soon as it is loaded. Because the
	// value is only available one dependent step ahead of its use,
	// the scheme has little lead time on pointer chases, which is
	// exactly why the paper finds hardware prefetching ineffective
	// for pointer-manipulating programs.
	PointerPrefetch bool

	// port takes the charges of a core, uncharged or recording
	// Machine; nil charges Cache.
	port charger
}

// New builds a machine with the given cache configuration and the
// default 8 KB page size.
func New(cfg cache.Config) *Machine {
	return &Machine{
		Arena: memsys.NewArena(memsys.DefaultPageSize),
		Cache: cache.New(cfg),
	}
}

// NewScaled builds a machine with the §4.1 hierarchy scaled down by
// factor, preserving block sizes and associativity so placement
// behaves identically at smaller absolute sizes.
func NewScaled(factor int64) *Machine { return New(cache.ScaledHierarchy(factor)) }

// charge is the step every access of m takes to the memory system.
func (m *Machine) charge(a memsys.Addr, size int64, kind cache.AccessKind) {
	if m.port != nil {
		m.port.access(a, size, kind)
		return
	}
	m.Cache.Access(a, size, kind)
}

// Tick charges n cycles of compute work.
func (m *Machine) Tick(n int64) {
	if m.port != nil {
		m.port.tick(n)
		return
	}
	m.Cache.Tick(n)
}

// Now returns the current simulated cycle.
func (m *Machine) Now() int64 { return m.Cache.Now() }

// Stats returns the accumulated cycle and cache counters.
func (m *Machine) Stats() cache.Stats { return m.Cache.Stats() }

// ResetStats zeroes counters without disturbing cache contents.
func (m *Machine) ResetStats() { m.Cache.ResetStats() }

// LoadAddr reads a simulated pointer (4 bytes; see memsys.PtrSize),
// charging the cache. With PointerPrefetch enabled, the loaded value
// is immediately prefetched at no issue cost.
func (m *Machine) LoadAddr(a memsys.Addr) memsys.Addr {
	m.charge(a, memsys.PtrSize, cache.Load)
	v := m.Arena.LoadAddr(a)
	if m.PointerPrefetch && !v.IsNil() {
		m.Cache.PrefetchFree(v)
	}
	return v
}

// StoreAddr writes a simulated pointer, charging the cache.
func (m *Machine) StoreAddr(a memsys.Addr, v memsys.Addr) {
	m.charge(a, memsys.PtrSize, cache.Store)
	m.Arena.StoreAddr(a, v)
}

// LoadInt reads an int64 field, charging the cache.
func (m *Machine) LoadInt(a memsys.Addr) int64 {
	m.charge(a, 8, cache.Load)
	return m.Arena.LoadInt(a)
}

// StoreInt writes an int64 field, charging the cache.
func (m *Machine) StoreInt(a memsys.Addr, v int64) {
	m.charge(a, 8, cache.Store)
	m.Arena.StoreInt(a, v)
}

// LoadFloat reads a float64 field, charging the cache.
func (m *Machine) LoadFloat(a memsys.Addr) float64 {
	m.charge(a, 8, cache.Load)
	return m.Arena.LoadFloat(a)
}

// StoreFloat writes a float64 field, charging the cache.
func (m *Machine) StoreFloat(a memsys.Addr, v float64) {
	m.charge(a, 8, cache.Store)
	m.Arena.StoreFloat(a, v)
}

// Load32 reads a uint32 field, charging the cache.
func (m *Machine) Load32(a memsys.Addr) uint32 {
	m.charge(a, 4, cache.Load)
	return m.Arena.Load32(a)
}

// Store32 writes a uint32 field, charging the cache.
func (m *Machine) Store32(a memsys.Addr, v uint32) {
	m.charge(a, 4, cache.Store)
	m.Arena.Store32(a, v)
}

// ReadBytes copies the len(dst) bytes at a into dst, charging one
// len(dst)-byte load.
func (m *Machine) ReadBytes(a memsys.Addr, dst []byte) {
	m.charge(a, int64(len(dst)), cache.Load)
	m.Arena.ReadBytes(a, dst)
}

// WriteBytes copies buf into the arena at a, charging one
// len(buf)-byte store.
func (m *Machine) WriteBytes(a memsys.Addr, buf []byte) {
	m.charge(a, int64(len(buf)), cache.Store)
	m.Arena.WriteBytes(a, buf)
}

// Copy copies n bytes from src to dst, charging one n-byte load of
// src and one n-byte store of dst. Overlapping regions fail as in
// memsys.Arena.Memcpy and charge nothing.
func (m *Machine) Copy(dst, src memsys.Addr, n int64) error {
	if err := m.Arena.Memcpy(dst, src, n); err != nil {
		return err
	}
	m.charge(src, n, cache.Load)
	m.charge(dst, n, cache.Store)
	return nil
}

// Prefetch issues a software prefetch for a's block.
func (m *Machine) Prefetch(a memsys.Addr) {
	if a.IsNil() {
		return
	}
	m.Cache.Prefetch(a)
}
