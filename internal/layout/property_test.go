package layout

import (
	"fmt"
	"math/rand"
	"testing"

	"ccl/internal/memsys"
	"ccl/internal/shrink"
)

// regionOp is one step of a randomized Region sequence: Alloc(N, Hot),
// Pack(N, Hot) when Pack is set, Mark() when Mark is set, or a Rewind
// to the latest mark (the region's start when none was taken) when
// Rewind is set.
type regionOp struct {
	Pack, Hot    bool
	Mark, Rewind bool
	N            int64
}

func (o regionOp) String() string {
	switch {
	case o.Mark:
		return "mark"
	case o.Rewind:
		return "rewind"
	}
	verb, color := "alloc", "cold"
	if o.Pack {
		verb = "pack"
	}
	if o.Hot {
		color = "hot"
	}
	return fmt.Sprintf("%s-%s(%d)", verb, color, o.N)
}

// checkRegionOps replays ops against one Region over a fresh arena
// and returns an error at the first broken invariant:
//   - every byte lands in its color — an Alloc's in the color asked
//     for, a Pack's in the color it reports — which is the invariant
//     behind §2.2's coloring: cold data must never occupy the reserved
//     (hot) sets, or the reservation is worthless;
//   - a Pack opens a hot block exactly when it wants hot and a whole
//     block of budget is left, and never straddles a cache block;
//   - no two placements overlap, and each lies in the region's Extents;
//   - every call consults the arena's guard exactly once;
//   - Claimed equals the summed Extents;
//   - HotLeft falls by exactly the hot bytes: a hot Alloc's size, a
//     hot block's size when a Pack opens one;
//   - a Rewind gives back exactly the hot bytes charged since its mark
//     and returns Pack to the marked block, consults no guard, and
//     leaves Claimed and Extents as they were (the placements it
//     abandons are dropped from the overlap check: the next Pack may
//     reuse their bytes in the marked block).
func checkRegionOps(g Geometry, frac float64, ops []regionOp) error {
	arena := memsys.NewArena(0)
	guarded := 0
	arena.SetGuard(func(ev memsys.GuardEvent, _ int64) error {
		if ev == memsys.GuardPlace {
			guarded++
		}
		return nil
	})
	r, err := NewRegion(arena, g, frac)
	if err != nil {
		return err
	}
	col, colored := r.Coloring()
	budget := r.HotLeft()
	if want := col.HotSets * int64(g.Assoc) * g.BlockSize; budget != want {
		return fmt.Errorf("initial HotLeft %d, want %d", budget, want)
	}
	type ext struct {
		a memsys.Addr
		n int64
	}
	var got []ext
	var hotBytes int64
	lastBlock := memsys.NilAddr
	type checkpoint struct {
		mark      Mark
		hotBytes  int64
		lastBlock memsys.Addr
		placed    int
	}
	mark := checkpoint{mark: r.Mark()}
	for i, op := range ops {
		calls := guarded
		if op.Mark || op.Rewind {
			claimed, extents := r.Claimed(), len(r.Extents())
			if op.Mark {
				mark = checkpoint{r.Mark(), hotBytes, lastBlock, len(got)}
			} else {
				r.Rewind(mark.mark)
				hotBytes, lastBlock, got = mark.hotBytes, mark.lastBlock, got[:mark.placed]
			}
			if guarded != calls {
				return fmt.Errorf("op %d %v: consulted the guard", i, op)
			}
			if r.Claimed() != claimed || len(r.Extents()) != extents {
				return fmt.Errorf("op %d %v: Claimed %d -> %d, %d -> %d extents",
					i, op, claimed, r.Claimed(), extents, len(r.Extents()))
			}
			if want := max(budget-hotBytes, 0); r.HotLeft() != want {
				return fmt.Errorf("op %d %v: HotLeft %d, want %d", i, op, r.HotLeft(), want)
			}
			continue
		}
		left := r.HotLeft()
		var a memsys.Addr
		hot := op.Hot && colored
		if op.Pack {
			a, hot, err = r.Pack(op.N, op.Hot)
		} else {
			a, err = r.Alloc(op.N, op.Hot)
		}
		if err != nil {
			return fmt.Errorf("op %d %v: %v", i, op, err)
		}
		if n := guarded - calls; n != 1 {
			return fmt.Errorf("op %d %v: consulted the guard %d times, want once", i, op, n)
		}
		if op.Pack {
			blk := g.BlockAlign(a)
			if g.BlockAlign(a.Add(op.N-1)) != blk {
				return fmt.Errorf("op %d %v: item %v+%d straddles a block", i, op, a, op.N)
			}
			if blk != lastBlock { // the Pack opened a block
				if want := op.Hot && colored && left >= g.BlockSize; hot != want {
					return fmt.Errorf("op %d %v: opened a hot=%v block with %d budget left", i, op, hot, left)
				}
				if hot {
					hotBytes += g.BlockSize
				}
			}
			lastBlock = blk
		} else if hot {
			hotBytes += op.N
		}
		if colored {
			for b := g.BlockAlign(a); b < a.Add(op.N); b = b.Add(g.BlockSize) {
				if col.IsHot(b) != hot {
					return fmt.Errorf("op %d %v: block %v of extent %v+%d is in set %d (hot<%d), wrong color",
						i, op, b, a, op.N, col.SetOf(b), col.HotSets)
				}
			}
		}
		for _, e := range got {
			if int64(a) < int64(e.a)+e.n && int64(e.a) < int64(a)+op.N {
				return fmt.Errorf("op %d %v: extent %v+%d overlaps %v+%d", i, op, a, op.N, e.a, e.n)
			}
		}
		got = append(got, ext{a, op.N})
		var sum int64
		inside := false
		for _, x := range r.Extents() {
			sum += int64(x.End) - int64(x.Start)
			inside = inside || (x.Start <= a && a.Add(op.N) <= x.End)
		}
		if !inside {
			return fmt.Errorf("op %d %v: extent %v+%d outside the region's Extents", i, op, a, op.N)
		}
		if sum != r.Claimed() {
			return fmt.Errorf("op %d %v: Claimed %d, Extents sum to %d", i, op, r.Claimed(), sum)
		}
		if want := max(budget-hotBytes, 0); r.HotLeft() != want {
			return fmt.Errorf("op %d %v: HotLeft %d after %d hot bytes of a %d budget, want %d",
				i, op, r.HotLeft(), hotBytes, budget, want)
		}
	}
	return nil
}

// genRegionOps draws a random op sequence that is valid for the
// region: Pack sizes within a block, Alloc sizes within the color's
// contiguous run (a few blocks when uncolored).
func genRegionOps(rng *rand.Rand, g Geometry, col Coloring, colored bool) []regionOp {
	ops := make([]regionOp, 1+rng.Intn(60))
	for i := range ops {
		switch rng.Intn(10) {
		case 0:
			ops[i] = regionOp{Mark: true}
			continue
		case 1:
			ops[i] = regionOp{Rewind: true}
			continue
		}
		op := regionOp{Pack: rng.Intn(2) == 0, Hot: rng.Intn(2) == 0}
		op.N = 1 + rng.Int63n(regionOpCap(g, col, colored, op))
		ops[i] = op
	}
	return ops
}

// regionOpCap is the largest valid size for op's kind and color.
func regionOpCap(g Geometry, col Coloring, colored bool, op regionOp) int64 {
	switch {
	case op.Pack:
		return g.BlockSize
	case !colored:
		return 4 * g.BlockSize
	case op.Hot:
		return col.HotSets * g.BlockSize
	default:
		return (g.Sets - col.HotSets) * g.BlockSize
	}
}

// TestColoringNeverMixesSetsProperty is the Region's metamorphic
// property over random power-of-two geometries, colored and
// uncolored, and random interleaved Alloc and Pack sequences.
// Violations shrink to a minimal op sequence before being reported.
func TestColoringNeverMixesSetsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 40; round++ {
		g := Geometry{
			Sets:      2 << rng.Intn(8), // 2..512, power of two
			Assoc:     1 + rng.Intn(4),
			BlockSize: 8 << rng.Intn(4), // 8..64, power of two
		}
		frac := 0.1 + 0.8*rng.Float64()
		if round%4 == 3 {
			frac = 0 // uncolored
		}
		r := must(NewRegion(memsys.NewArena(0), g, frac))
		col, colored := r.Coloring()
		shrink.Check(t, int64(round), 4,
			func(rng *rand.Rand) []regionOp { return genRegionOps(rng, g, col, colored) },
			func(ops []regionOp) bool { return checkRegionOps(g, frac, ops) != nil })
	}
}

// TestColoringShrinksFailingCase drives the shrinking path with a
// synthetic violation: a predicate that trips on one oversized hot
// allocation must reduce the sequence to that single op.
func TestColoringShrinksFailingCase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := make([]regionOp, 80)
	for i := range ops {
		ops[i] = regionOp{Pack: rng.Intn(2) == 0, Hot: rng.Intn(2) == 0, N: 1 + rng.Int63n(64)}
	}
	needle := regionOp{Hot: true, N: 4096}
	ops[41] = needle
	g := Geometry{Sets: 256, Assoc: 1, BlockSize: 64}
	fails := func(s []regionOp) bool {
		if checkRegionOps(g, 0.5, s) != nil {
			return true
		}
		for _, o := range s {
			if o == needle {
				return true
			}
		}
		return false
	}
	min := shrink.Slice(ops, fails)
	if len(min) != 1 || min[0] != needle {
		t.Fatalf("shrunk to %v, want [%v]", min, needle)
	}
}

// FuzzRegion drives a Region from raw bytes: four bytes pick the
// geometry and color fraction (a multiple of four selects an
// uncolored region), then every three bytes are one op — a kind byte
// (bits 2-3 set to 1 Mark, to 2 Rewind; otherwise bit 0 Pack, bit 1
// hot) and a 16-bit size folded into the op's valid range. Every
// invariant checkRegionOps checks must hold.
func FuzzRegion(f *testing.F) {
	f.Add([]byte{3, 0, 3, 128, 0, 0, 64, 1, 0, 20, 3, 0, 40, 2, 1, 0})
	f.Add([]byte{7, 3, 1, 200, 3, 0, 8, 3, 0, 8, 3, 0, 8, 1, 0, 8, 0, 2, 0})
	f.Add([]byte{2, 1, 2, 4, 1, 0, 16, 0, 0, 255, 3, 0, 1})
	// Mark, pack and alloc hot, rewind, pack hot again.
	f.Add([]byte{3, 0, 3, 130, 4, 0, 0, 3, 0, 40, 2, 0, 64, 8, 0, 0, 3, 0, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g := Geometry{
			Sets:      2 << (data[0] % 8),
			Assoc:     1 + int(data[1]%4),
			BlockSize: 8 << (data[2] % 4),
		}
		frac := 0.1 + 0.8*float64(data[3])/255
		if data[3]%4 == 0 {
			frac = 0
		}
		r := must(NewRegion(memsys.NewArena(0), g, frac))
		col, colored := r.Coloring()
		var ops []regionOp
		for b := data[4:]; len(b) >= 3 && len(ops) < 64; b = b[3:] {
			switch b[0] >> 2 & 3 {
			case 1:
				ops = append(ops, regionOp{Mark: true})
				continue
			case 2:
				ops = append(ops, regionOp{Rewind: true})
				continue
			}
			op := regionOp{Pack: b[0]&1 != 0, Hot: b[0]&2 != 0}
			op.N = 1 + (int64(b[1])<<8|int64(b[2]))%regionOpCap(g, col, colored, op)
			ops = append(ops, op)
		}
		if err := checkRegionOps(g, frac, ops); err != nil {
			t.Fatalf("geometry %+v frac %v: %v", g, frac, err)
		}
	})
}
