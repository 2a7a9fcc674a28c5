// Package layout holds the placement arithmetic shared by ccmorph,
// ccmalloc, and the cache-conscious tree implementations: mapping
// addresses to cache sets, and the Region (region.go) — the one
// primitive that carves a colored virtual address space (paper §2.2,
// Figure 2) and packs items into cache blocks (paper §2.1).
package layout

import (
	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// Geometry describes the cache level that placement targets —
// normally the last-level (L2) cache, per §3.2.1.
type Geometry struct {
	Sets      int64
	Assoc     int
	BlockSize int64
}

// FromLevel extracts placement geometry from a cache level config.
func FromLevel(lc cache.LevelConfig) Geometry {
	return Geometry{Sets: lc.Sets(), Assoc: lc.Assoc, BlockSize: lc.BlockSize}
}

// Capacity returns the level's capacity in bytes.
func (g Geometry) Capacity() int64 { return g.Sets * int64(g.Assoc) * g.BlockSize }

// SetOf returns the cache set that addr maps to.
func (g Geometry) SetOf(addr memsys.Addr) int64 {
	return (int64(addr) / g.BlockSize) % g.Sets
}

// BlockAlign rounds addr down to its block boundary.
func (g Geometry) BlockAlign(addr memsys.Addr) memsys.Addr {
	return memsys.Addr(int64(addr) &^ (g.BlockSize - 1))
}

// NodesPerBlock returns k = floor(b/e), the number of structure
// elements of size elem that fit in one cache block (paper §5.3).
func (g Geometry) NodesPerBlock(elem int64) int64 {
	if elem <= 0 {
		// Panic justification: every caller (ccmorph, after its
		// layout validation) validates the element size
		// before reaching this arithmetic helper; a non-positive size
		// here means the validation layer itself is broken.
		panic("layout: element size must be positive")
	}
	k := g.BlockSize / elem
	if k < 1 {
		k = 1
	}
	return k
}

// Coloring describes a two-color partition of the cache: the first
// HotSets sets hold frequently-accessed elements, the remaining sets
// hold everything else (paper Figure 2).
type Coloring struct {
	Geometry
	HotSets int64
}

// NewColoring partitions geometry g with fraction frac of the sets
// (0 < frac < 1) reserved for hot elements. The paper's experiments
// use one half (§5.4: "half the L2 cache capacity ... colored into a
// unique portion"). A fraction outside (0,1) fails with
// cclerr.ErrInvalidArg; a geometry with fewer than two sets cannot be
// two-colored and fails with cclerr.ErrBadGeometry.
func NewColoring(g Geometry, frac float64) (Coloring, error) {
	if frac <= 0 || frac >= 1 {
		return Coloring{}, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: coloring fraction %v out of (0,1)", frac)
	}
	if g.Sets < 2 {
		return Coloring{}, cclerr.Errorf(cclerr.ErrBadGeometry,
			"layout: cannot two-color a cache with %d set(s)", g.Sets)
	}
	hot := int64(float64(g.Sets) * frac)
	if hot < 1 {
		hot = 1
	}
	if hot >= g.Sets {
		hot = g.Sets - 1
	}
	return Coloring{Geometry: g, HotSets: hot}, nil
}

// IsHot reports whether addr falls in the hot cache region.
func (c Coloring) IsHot(addr memsys.Addr) bool { return c.SetOf(addr) < c.HotSets }

// wayPeriod returns the number of bytes after which the set mapping
// repeats: sets x block size.
func (c Coloring) wayPeriod() int64 { return c.Sets * c.BlockSize }
