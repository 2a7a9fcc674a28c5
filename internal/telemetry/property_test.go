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

// checkThreeCSums replays a trace through an observed hierarchy and
// verifies the 3C accounting identity at every level: each demand
// miss is classified exactly once, so compulsory + capacity +
// conflict must equal the level's demand miss counter.
func checkThreeCSums(tr trace.Trace) error {
	h := cache.New(tr.Config)
	c := Attach(h)
	for _, r := range tr.Records {
		h.Access(r.Addr, r.Size, r.Kind.AccessKind())
	}
	for i := range tr.Config.Levels {
		com, cap, con, _ := c.Misses(i)
		if com < 0 || cap < 0 || con < 0 {
			return fmt.Errorf("L%d: negative class count (%d, %d, %d)", i+1, com, cap, con)
		}
		if sum, want := com+cap+con, h.Stats().Levels[i].Misses; sum != want {
			return fmt.Errorf("L%d: 3C classes sum to %d (compulsory %d + capacity %d + conflict %d), want %d misses",
				i+1, sum, com, cap, con, want)
		}
	}
	return nil
}

// TestThreeCSumProperty is the telemetry metamorphic property: for
// random geometries and access streams, the 3C classes partition the
// demand misses. A violating trace is minimized (shrink.Slice over
// its records, geometry fixed) before being reported.
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
		if err := checkThreeCSums(tr); err != nil {
			min := shrink.Slice(tr.Records, func(rs []trace.Record) bool {
				return checkThreeCSums(trace.Trace{Config: cfg, Records: rs}) != nil
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
		if checkThreeCSums(trace.Trace{Config: cfg, Records: rs}) != nil {
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
