package cache

import (
	"fmt"
	"math/bits"

	"ccl/internal/lru"
	"ccl/internal/memsys"
)

// TLBConfig describes the data TLB: fully associative with LRU
// replacement, like the UltraSPARC-I's 64-entry dTLB. Zero Entries
// disables it.
type TLBConfig struct {
	Entries  int   // total entry count
	PageSize int64 // bytes mapped per entry
	Penalty  int64 // cycles per miss (software/table walk)
}

// validate reports a TLB configuration error, if any. Called by New
// only when Entries is positive.
func (c TLBConfig) validate() error {
	if c.PageSize <= 0 || c.Penalty < 0 {
		return fmt.Errorf("cache: TLB needs a positive page size and non-negative penalty")
	}
	return nil
}

// tlb is the data TLB: one fully-associative LRU set of page numbers
// (package lru), so a hit or a miss is one index lookup and an O(1)
// relink, and nothing allocates once the pages a run touches are
// indexed. The victim is the page translated least recently,
// independent of the simulated clock (DESIGN.md §9).
type tlb struct {
	penalty int64

	pageShift uint  // log2(PageSize) when PageSize is a power of two
	pageSize  int64 // divisor for the general path; 0 selects the shift path

	set lru.Set
}

// newTLB builds the TLB for a validated config with positive Entries.
func newTLB(cfg TLBConfig) *tlb {
	t := &tlb{penalty: cfg.Penalty, pageSize: cfg.PageSize, set: lru.New(cfg.Entries)}
	if cfg.PageSize&(cfg.PageSize-1) == 0 {
		t.pageShift = uint(bits.TrailingZeros64(uint64(cfg.PageSize)))
		t.pageSize = 0
	}
	return t
}

// pageOf returns addr's page number.
func (t *tlb) pageOf(addr memsys.Addr) int64 {
	if t.pageSize == 0 {
		return int64(addr) >> t.pageShift
	}
	return int64(addr) / t.pageSize
}
