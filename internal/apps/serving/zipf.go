package serving

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"ccl/internal/cclerr"
)

// MaxZipfKeys bounds the key-space size a generator will precompute a
// cumulative table for, so fuzzed parameters cannot force an
// unbounded allocation. It also caps the entries the shared table
// cache holds (16 MiB of float64s).
const MaxZipfKeys = 1 << 21

// maxZipfExponent bounds the skew parameter; beyond this every draw
// collapses onto key 1 anyway and the power computation degenerates.
const maxZipfExponent = 64

// Zipf is a deterministic seeded Zipfian key generator: key k in
// [1, n] is drawn with probability proportional to 1/k^s. Unlike
// math/rand's generator it accepts any skew s >= 0 — the serving
// workloads sweep s in {0.8, 0.99, 1.2}, and two of those are below
// the s > 1 floor rand.Zipf imposes. Draws use inversion on a
// precomputed cumulative table, so the stream is a pure function of
// (seed, s, n).
type Zipf struct {
	rng *rand.Rand
	cum []float64 // shared with every generator of the same (s, n); never written
	n   int64
	s   float64
}

// zipfKey names one cumulative table.
type zipfKey struct {
	s float64
	n int64
}

// zipfTables caches cumulative tables across generators. A table is a
// pure function of (s, n) and is never written once published, so
// every generator, in any goroutine, may share it; the workload
// drivers build a generator per call, and rebuilding the table (one
// math.Pow per key) would otherwise dominate a short call. held
// counts the entries of every table in byKey and never exceeds
// MaxZipfKeys: a table that would pass it first drops the rest.
var zipfTables struct {
	mu    sync.Mutex
	byKey map[zipfKey][]float64
	held  int64
}

// zipfTable returns the cumulative table for (s, n), building it on
// first use.
func zipfTable(s float64, n int64) []float64 {
	key := zipfKey{s, n}
	zipfTables.mu.Lock()
	defer zipfTables.mu.Unlock()
	if cum, ok := zipfTables.byKey[key]; ok {
		return cum
	}
	cum := make([]float64, n)
	total := 0.0
	for k := int64(1); k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	if zipfTables.byKey == nil || zipfTables.held+n > MaxZipfKeys {
		zipfTables.byKey = map[zipfKey][]float64{}
		zipfTables.held = 0
	}
	zipfTables.byKey[key] = cum
	zipfTables.held += n
	return cum
}

// NewZipf builds a generator over keys [1, n] with skew s, seeded for
// reproducibility. It fails with cclerr.ErrInvalidArg for a
// non-positive or oversized n, or a negative, NaN, infinite, or
// absurdly large s.
func NewZipf(seed int64, s float64, n int64) (*Zipf, error) {
	if n < 1 || n > MaxZipfKeys {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewZipf: key space %d outside [1, %d]", n, MaxZipfKeys)
	}
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 || s > maxZipfExponent {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewZipf: skew %v outside [0, %d]", s, maxZipfExponent)
	}
	return &Zipf{rng: rand.New(rand.NewSource(seed)), cum: zipfTable(s, n), n: n, s: s}, nil
}

// N returns the key-space size.
func (z *Zipf) N() int64 { return z.n }

// S returns the skew parameter.
func (z *Zipf) S() float64 { return z.s }

// Next draws the next key in [1, n]. Key 1 is the hottest; rank k
// has probability proportional to 1/k^s.
func (z *Zipf) Next() uint32 {
	u := z.rng.Float64() * z.cum[len(z.cum)-1]
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return uint32(i + 1)
}
