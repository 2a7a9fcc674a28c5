package telemetry

import (
	"fmt"
	"math/rand"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
	"ccl/internal/shrink"
	"ccl/internal/trace"
)

// checkThreeC replays a trace through an observed hierarchy and
// checks the 3C classification at every level: each access's
// LastLLMissClass and each level's class counts must equal the naive
// reference classifier's (reference_test.go), and compulsory +
// capacity + conflict must equal the level's demand miss counter. A
// classifier with the wrong split but the right sum fails the first
// two checks.
func checkThreeC(tr trace.Trace) error {
	h := cache.New(tr.Config)
	tee := &refTee{col: NewCollector(tr.Config), ref: newRefClassifier(tr.Config)}
	h.SetObserver(tee)
	for _, r := range tr.Records {
		h.Access(r.Addr, r.Size, r.Kind.AccessKind())
		if tee.err != nil {
			return tee.err
		}
	}
	for i := range tr.Config.Levels {
		com, cap, con, _ := tee.col.Misses(i)
		if com < 0 || cap < 0 || con < 0 {
			return fmt.Errorf("L%d: negative class count (%d, %d, %d)", i+1, com, cap, con)
		}
		want := tee.ref.levels[i].classes
		if got := [NumClasses]int64{Compulsory: com, Capacity: cap, Conflict: con}; got != want {
			return fmt.Errorf("L%d: classes (compulsory, capacity, conflict, coherence) = %v, reference %v",
				i+1, got, want)
		}
		if sum, want := com+cap+con, h.Stats().Levels[i].Misses; sum != want {
			return fmt.Errorf("L%d: 3C classes sum to %d (compulsory %d + capacity %d + conflict %d), want %d misses",
				i+1, sum, com, cap, con, want)
		}
	}
	return nil
}

// TestThreeCSumProperty is the telemetry metamorphic property: for
// random geometries and access streams, the 3C classes match the
// reference classifier access by access and partition the demand
// misses. A violating trace is minimized (shrink.Slice over its
// records, geometry fixed) before being reported.
func TestThreeCSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	names := []string{"L1", "L2", "L3"}
	for round := 0; round < 30; round++ {
		var cfg cache.Config
		nLevels := 1 + rng.Intn(3)
		for i := 0; i < nLevels; i++ {
			block := int64(8) << rng.Intn(4)
			assoc := 1 + rng.Intn(4)
			sets := int64(1 + rng.Intn(32))
			cfg.Levels = append(cfg.Levels, cache.LevelConfig{
				Name:      names[i],
				Size:      sets * int64(assoc) * block,
				Assoc:     assoc,
				BlockSize: block,
				Latency:   int64(1 + rng.Intn(4)),
				WriteBack: rng.Intn(2) == 0,
			})
		}
		cfg.MemLatency = 20
		tr := trace.Trace{Config: cfg}
		for i := 0; i < 5_000; i++ {
			k := trace.Load
			if rng.Intn(2) == 0 {
				k = trace.Store
			}
			tr.Records = append(tr.Records, trace.Record{
				Kind: k,
				Addr: memsys.Addr(rng.Intn(32 << 10)),
				Size: int64(1 + rng.Intn(16)),
			})
		}
		if err := checkThreeC(tr); err != nil {
			min := shrink.Slice(tr.Records, func(rs []trace.Record) bool {
				return checkThreeC(trace.Trace{Config: cfg, Records: rs}) != nil
			})
			t.Fatalf("round %d: %v\nminimized to %d records: %v", round, err, len(min), min)
		}
	}
}

// TestThreeCShrinksFailingCase proves the minimization path works for
// this property's input shape: a synthetic predicate tripping on one
// record must reduce the trace to that record.
func TestThreeCShrinksFailingCase(t *testing.T) {
	cfg := cache.Config{
		Levels:     []cache.LevelConfig{{Name: "L1", Size: 512, Assoc: 2, BlockSize: 16, Latency: 1}},
		MemLatency: 20,
	}
	tr := trace.Trace{Config: cfg}
	for i := 0; i < 90; i++ {
		tr.Records = append(tr.Records, trace.Record{Kind: trace.Load, Addr: memsys.Addr(16 * i), Size: 4})
	}
	needle := trace.Record{Kind: trace.Store, Addr: 0x5150, Size: 2}
	tr.Records[44] = needle
	fails := func(rs []trace.Record) bool {
		if checkThreeC(trace.Trace{Config: cfg, Records: rs}) != nil {
			return true
		}
		for _, r := range rs {
			if r == needle {
				return true
			}
		}
		return false
	}
	min := shrink.Slice(tr.Records, fails)
	if len(min) != 1 || min[0] != needle {
		t.Fatalf("minimized to %v, want [%v]", min, needle)
	}
}

// regRange is one range a region test registered, with its label:
// the plain record RegionMap's lookups are checked against.
type regRange struct {
	rng   memsys.AddrRange
	label string
}

// linearFind is the plain search: the label of the registered range
// containing a and a's offset into it, or (OtherLabel, -1).
func linearFind(regs []regRange, a memsys.Addr) (string, int64) {
	for _, r := range regs {
		if r.rng.Contains(a) {
			return r.label, int64(a - r.rng.Start)
		}
	}
	return OtherLabel, -1
}

// overlapsAny reports whether r overlaps a registered range.
func overlapsAny(regs []regRange, r memsys.AddrRange) bool {
	for _, o := range regs {
		if r.Start < o.rng.End && o.rng.Start < r.End {
			return true
		}
	}
	return false
}

// registerElems registers a size-byte element at each start under
// label through RegisterElems, skipping any that would overlap an
// earlier registration, and records them in regs.
func registerElems(m *RegionMap, regs []regRange, label string, starts []memsys.Addr, size int64) []regRange {
	var batch []memsys.Addr
	for _, a := range starts {
		r := memsys.AddrRange{Start: a, End: a.Add(size)}
		if overlapsAny(regs, r) {
			continue
		}
		batch = append(batch, a)
		regs = append(regs, regRange{r, label})
	}
	// RegisterElems sorts its argument in place; hand it a copy.
	m.RegisterElems(label, append([]memsys.Addr(nil), batch...), size)
	return regs
}

// run returns the starts of n elements stride bytes apart from start.
func run(start memsys.Addr, n int, stride int64) []memsys.Addr {
	starts := make([]memsys.Addr, n)
	for i := range starts {
		starts[i] = start.Add(int64(i) * stride)
	}
	return starts
}

// checkLookup holds find and Resolve at a to the plain search: the same
// label, and Resolve's offset into the containing range. resolveFirst
// calls Resolve before find, so Resolve's own memo miss is checked
// too, not only its hit on the slot find just filled.
func checkLookup(m *RegionMap, regs []regRange, a memsys.Addr, resolveFirst bool) error {
	want, wantOff := linearFind(regs, a)
	resolve := func() error {
		if r, off := m.Resolve(a); r.Label() != want || off != wantOff {
			return fmt.Errorf("Resolve(%v) = (%q, %d), want (%q, %d)", a, r.Label(), off, want, wantOff)
		}
		return nil
	}
	if resolveFirst {
		if err := resolve(); err != nil {
			return err
		}
	}
	if got := m.find(a).Label(); got != want {
		return fmt.Errorf("find(%v) = %q, want %q", a, got, want)
	}
	return resolve()
}

// memoLap is the address distance at which two windows share a memo
// slot.
const memoLap = memoSlots << memoShift

// TestRegionFindProperty holds RegionMap's lookup, with its memo of
// found ranges, to a plain search over the registered ranges: after
// random non-overlapping RegisterElems batches interleaved with
// lookups, find returns the region the search finds and Resolve
// agrees with it and returns the offset into the containing range.
// Each case aims lookups where a memo that trusted a slot without its
// containment check would answer wrongly:
//
//   - random: sparse ranges; lookups favour the edges of the range
//     found last (one byte before its start, its last byte, its end).
//   - packed: 20-byte elements at a 24-byte stride, several to a
//     memo window; lookups favour the window of the range found last,
//     header gaps included.
//   - aliased: ranges in four laps of the memo; lookups jump a whole
//     number of laps from the range found last, to the same slot.
//   - resolve: the aliased stream with Resolve called before find, so
//     its offsets come from its own memo misses and fills.
func TestRegionFindProperty(t *testing.T) {
	labels := []string{"a", "b", "c", "d", "e"}
	type gen struct {
		register func(rng *rand.Rand, m *RegionMap, regs []regRange) []regRange
		probe    func(rng *rand.Rand, last memsys.AddrRange) memsys.Addr
	}
	edges := func(rng *rand.Rand, last memsys.AddrRange, a memsys.Addr) memsys.Addr {
		switch rng.Intn(4) {
		case 0:
			a = last.Start - 1
		case 1:
			a = last.End - 1
		case 2:
			a = last.End
		}
		return a
	}
	random := gen{
		register: func(rng *rand.Rand, m *RegionMap, regs []regRange) []regRange {
			starts := make([]memsys.Addr, 1+rng.Intn(3))
			for i := range starts {
				starts[i] = memsys.Addr(rng.Intn(1 << 14))
			}
			return registerElems(m, regs, labels[rng.Intn(len(labels))], starts, int64(1+rng.Intn(64)))
		},
		probe: func(rng *rand.Rand, last memsys.AddrRange) memsys.Addr {
			return edges(rng, last, memsys.Addr(rng.Intn(1<<14+256)))
		},
	}
	packed := gen{
		register: func(rng *rand.Rand, m *RegionMap, regs []regRange) []regRange {
			start := memsys.Addr(0x1000 + 24*rng.Intn(2048))
			return registerElems(m, regs, labels[rng.Intn(len(labels))], run(start, 1+rng.Intn(8), 24), 20)
		},
		probe: func(rng *rand.Rand, last memsys.AddrRange) memsys.Addr {
			if rng.Intn(2) == 0 {
				return last.Start&^(1<<memoShift-1) + memsys.Addr(rng.Intn(1<<memoShift))
			}
			return edges(rng, last, memsys.Addr(0x1000+24*rng.Intn(2048)+rng.Intn(24)))
		},
	}
	aliased := gen{
		register: func(rng *rand.Rand, m *RegionMap, regs []regRange) []regRange {
			start := memsys.Addr(rng.Intn(4096) + rng.Intn(4)*memoLap)
			size := int64(1 + rng.Intn(64))
			return registerElems(m, regs, labels[rng.Intn(len(labels))], run(start, 1+rng.Intn(3), size+int64(rng.Intn(16))), size)
		},
		probe: func(rng *rand.Rand, last memsys.AddrRange) memsys.Addr {
			a := last.Start.Add(int64(rng.Intn(int(last.Len()) + 1)))
			if rng.Intn(4) == 0 {
				a = memsys.Addr(rng.Intn(4096))
			}
			return a%memoLap + memsys.Addr(rng.Intn(4)*memoLap)
		},
	}
	for _, c := range []struct {
		name         string
		gen          gen
		resolveFirst bool
	}{
		{"random", random, false},
		{"packed", packed, false},
		{"aliased", aliased, false},
		{"resolve", aliased, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := NewRegionMap(1)
				var regs []regRange
				var last memsys.AddrRange
				for step := 0; step < 2_000; step++ {
					if rng.Intn(8) == 0 {
						regs = c.gen.register(rng, m, regs)
						continue
					}
					a := c.gen.probe(rng, last)
					if err := checkLookup(m, regs, a, c.resolveFirst); err != nil {
						t.Fatalf("seed %d step %d: %v (last range %v)", seed, step, err, last)
					}
					for _, r := range regs {
						if r.rng.Contains(a) {
							last = r.rng
						}
					}
				}
			}
		})
	}
}
