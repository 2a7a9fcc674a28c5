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

// TestRegionFindProperty holds RegionMap.find, with its memo of the
// last range it returned, to a plain search over the registered
// ranges: after random non-overlapping registrations (RegisterElems
// batches of one to three ranges) interleaved with lookups, every lookup
// returns the region the search finds, and Resolve agrees with it and
// returns the offset into the containing range. Lookups favour the
// edges of the range found last (one byte before its start, its last
// byte, its end), where a memo that trusted itself without a
// containment check would answer wrongly.
func TestRegionFindProperty(t *testing.T) {
	type reg struct {
		rng   memsys.AddrRange
		label string
	}
	search := func(regs []reg, a memsys.Addr) (string, int64) {
		for _, r := range regs {
			if r.rng.Contains(a) {
				return r.label, int64(a - r.rng.Start)
			}
		}
		return OtherLabel, -1
	}
	free := func(regs []reg, r memsys.AddrRange) bool {
		for _, o := range regs {
			if r.Start < o.rng.End && o.rng.Start < r.End {
				return false
			}
		}
		return true
	}
	labels := []string{"a", "b", "c", "d", "e"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewRegionMap(1)
		var regs []reg
		var last memsys.AddrRange
		for step := 0; step < 2_000; step++ {
			if rng.Intn(8) == 0 {
				label := labels[rng.Intn(len(labels))]
				size := int64(1 + rng.Intn(64))
				var batch []memsys.Addr
				for n := 1 + rng.Intn(3); n > 0; n-- {
					start := memsys.Addr(rng.Intn(1 << 14))
					r := memsys.AddrRange{Start: start, End: start.Add(size)}
					if !free(regs, r) {
						continue
					}
					batch = append(batch, start)
					regs = append(regs, reg{r, label})
				}
				// RegisterElems sorts its argument in place.
				m.RegisterElems(label, append([]memsys.Addr(nil), batch...), size)
				continue
			}
			a := memsys.Addr(rng.Intn(1<<14 + 256))
			switch rng.Intn(4) {
			case 0:
				a = last.Start - 1
			case 1:
				a = last.End - 1
			case 2:
				a = last.End
			}
			if a < 0 {
				a = 0
			}
			want, wantOff := search(regs, a)
			if got := m.find(a).Label(); got != want {
				t.Fatalf("seed %d step %d: find(%v) = %q, want %q (last range %v)", seed, step, a, got, want, last)
			}
			if r, off := m.Resolve(a); r.Label() != want || off != wantOff {
				t.Fatalf("seed %d step %d: Resolve(%v) = (%q, %d), want (%q, %d)", seed, step, a, r.Label(), off, want, wantOff)
			}
			for _, r := range regs {
				if r.rng.Contains(a) {
					last = r.rng
				}
			}
		}
	}
}
