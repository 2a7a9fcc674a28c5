// counters.go is the canonical false-sharing microbenchmark: each
// core increments its own counter — no logical sharing at all — and
// the only experimental variable is the layout stride between
// adjacent cores' counters. Packed (stride 8) puts every counter in
// one coherence granule and every increment invalidates every other
// core's copy; padded (stride = granule) gives each counter its own
// granule and the protocol goes silent.
package mc

import (
	"fmt"

	"ccl/internal/machine"
)

// counterWork is the busy cycles charged per increment, modeling the
// computation between counter updates.
const counterWork = 1

// CounterConfig parameterizes a Counters run.
type CounterConfig struct {
	// Iters is the number of increments each core performs.
	Iters int
	// Stride is the byte distance between adjacent cores' counters;
	// 8 packs them, the coherence granule pads them apart.
	Stride int64
}

// Counters runs the per-core increment loop on tp and returns the
// result plus each core's final counter value (each must equal
// Iters: invalidations move data, never corrupt it).
func Counters(tp *machine.Topology, cfg CounterConfig) (Result, []int64) {
	if cfg.Stride < 8 {
		panic(fmt.Sprintf("mc: counter stride %d below the 8-byte counter size", cfg.Stride))
	}
	cols := AttachCollectors(tp)
	tp.Arena.AlignBrk(tp.Config().LLC.BlockSize)
	base := tp.Arena.Sbrk(cfg.Stride * int64(tp.Cores()))
	for _, col := range cols {
		col.Regions().Register("counters", base, cfg.Stride*int64(tp.Cores()))
	}

	workers := make([]Worker, tp.Cores())
	for i := 0; i < tp.Cores(); i++ {
		c := tp.Core(i)
		slot := base.Add(int64(i) * cfg.Stride)
		left := cfg.Iters
		workers[i] = func() bool {
			if left <= 0 {
				return false
			}
			left--
			c.StoreInt(slot, c.LoadInt(slot)+1)
			c.Tick(counterWork)
			return left > 0
		}
	}
	steps := RoundRobin(workers...)

	finals := make([]int64, tp.Cores())
	for i := range finals {
		finals[i] = tp.Arena.LoadInt(base.Add(int64(i) * cfg.Stride))
	}
	return collect(tp, steps, cols), finals
}
