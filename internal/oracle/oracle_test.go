package oracle

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/shrink"
	"ccl/internal/trace"
)

// fixturePath holds the minimized trace of the first real divergence
// the oracle found: blocksCovering split multi-block accesses at the
// L1 block size instead of the hierarchy's minimum block size, so a
// level with blocks smaller than L1's missed accesses to its extra
// blocks. See TestFixtureBlocksCoveringMinBlock.
const fixturePath = "testdata/blocks_covering_min.trace"

// TestDifferentialMillionAccesses is the acceptance gate: at least a
// million accesses across at least twenty random geometries replayed
// through both simulators with zero divergence. The trace
// construction lives in sweep.go (RandomGeometry / RandomRecords /
// SweepTrace) so the bench oracle experiment replays the same cells.
func TestDifferentialMillionAccesses(t *testing.T) {
	const (
		geometries = 24
		perGeom    = 50_000 // 24 * 50k = 1.2M accesses
	)
	for g := 0; g < geometries; g++ {
		tr := SweepTrace(42, g, perGeom)
		if d := Diff(tr); d != nil {
			min := shrink.Slice(tr.Records, func(rs []trace.Record) bool {
				return Diff(trace.Trace{Config: tr.Config, Records: rs}) != nil
			})
			t.Fatalf("geometry %d: %v\nminimized to %d records: %v", g, d, len(min), min)
		}
	}
}

// TestDifferentialPaperConfigs replays pseudo-random streams through
// the two hierarchies the experiments actually use. PaperHierarchy
// includes a TLB, which must not perturb architectural behaviour.
func TestDifferentialPaperConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  cache.Config
	}{
		{"paper", cache.PaperHierarchy()},
		{"paper-scaled", cache.ScaledHierarchy(64)},
		{"rsim", cache.RSIMHierarchy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tr := trace.Trace{Config: tc.cfg, Records: RandomRecords(rng, 100_000)}
			if d := Diff(tr); d != nil {
				t.Fatal(d)
			}
		})
	}
}

// TestFixtureBlocksCoveringMinBlock replays the minimized divergence
// fixture. Before the fix, cache.Hierarchy split multi-block accesses
// at the L1 block size; with an L2 whose blocks are smaller than
// L1's, an access spanning two small blocks was simulated as one,
// undercounting L2 activity. The fixture keeps that bug dead.
func TestFixtureBlocksCoveringMinBlock(t *testing.T) {
	tr, err := trace.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is only a reproduction if some level has blocks
	// smaller than L1's and some access spans more than one of them.
	minBlock := tr.Config.Levels[0].BlockSize
	for _, l := range tr.Config.Levels {
		if l.BlockSize < minBlock {
			minBlock = l.BlockSize
		}
	}
	if minBlock >= tr.Config.Levels[0].BlockSize && len(tr.Config.Levels) > 1 {
		t.Fatalf("fixture lost its shape: min block %d not below L1 block %d",
			minBlock, tr.Config.Levels[0].BlockSize)
	}
	spans := false
	for _, r := range tr.Records {
		if int64(r.Addr)/minBlock != (int64(r.Addr)+r.Size-1)/minBlock {
			spans = true
		}
	}
	if !spans {
		t.Fatal("fixture lost its shape: no record spans two min-size blocks")
	}
	if d := Diff(tr); d != nil {
		t.Fatal(d)
	}
}

// TestOracleLRUBasics sanity-checks the reference simulator on its
// own: fill a 1-set 2-way level, then force an eviction of the least
// recently used block.
func TestOracleLRUBasics(t *testing.T) {
	cfg := cache.Config{
		Levels: []cache.LevelConfig{
			{Name: "L1", Size: 32, Assoc: 2, BlockSize: 16, Latency: 1, WriteBack: true},
		},
		MemLatency: 10,
	}
	o := New(cfg)
	o.Access(0, 4, cache.Store) // fill way 0, dirty
	o.Access(32, 4, cache.Load) // fill way 1
	o.Access(0, 4, cache.Load)  // touch way 0: way 1 is now LRU
	ev := o.Access(64, 4, cache.Load)
	var evict *Event
	for i := range ev {
		if ev[i].Kind == EvEvict {
			evict = &ev[i]
		}
	}
	if evict == nil || evict.Addr != 32 || evict.Dirty {
		t.Fatalf("want clean eviction of block 32, got %v", ev)
	}
	if !o.Contains(0, 0) || !o.Contains(0, 64) || o.Contains(0, 32) {
		t.Fatal("residency after eviction is wrong")
	}
	s := o.Stats()[0]
	if s.Accesses != 4 || s.Hits != 1 || s.Misses != 3 || s.Evictions != 1 || s.Writebacks != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestCaptureDivergenceFixture is the capture tool, not a test: run
// with ORACLE_CAPTURE=1 to hunt for a divergence on random traces,
// minimize it, and write it to testdata/. It was used (against the
// pre-fix simulator) to produce the checked-in fixture, and exists so
// the next divergence is a one-command capture.
func TestCaptureDivergenceFixture(t *testing.T) {
	if os.Getenv("ORACLE_CAPTURE") == "" {
		t.Skip("set ORACLE_CAPTURE=1 to hunt and record a divergence fixture")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		tr := trace.Trace{
			Config:  RandomGeometry(rng),
			Records: RandomRecords(rng, 2_000),
		}
		if Diff(tr) == nil {
			continue
		}
		recs := shrink.Slice(tr.Records, func(rs []trace.Record) bool {
			return Diff(trace.Trace{Config: tr.Config, Records: rs}) != nil
		})
		min := trace.Trace{Config: tr.Config, Records: recs}
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFile(fixturePath, min); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("captured divergence (%d records) to %s: %v",
			len(min.Records), fixturePath, Diff(min))
	}
	t.Log("no divergence found; simulators agree on 10k random traces")
}
