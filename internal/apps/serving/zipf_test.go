package serving

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ccl/internal/cclerr"
)

func TestZipfValidation(t *testing.T) {
	bad := []struct {
		s float64
		n int64
	}{
		{0.99, 0}, {0.99, -5}, {0.99, MaxZipfKeys + 1},
		{-0.1, 100}, {math.NaN(), 100}, {math.Inf(1), 100}, {65, 100},
	}
	for _, c := range bad {
		if _, err := NewZipf(1, c.s, c.n); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Errorf("NewZipf(s=%v, n=%d): error %v, want ErrInvalidArg", c.s, c.n, err)
		}
	}
}

// refZipf is the generator as it was before generators shared their
// cumulative tables: each one builds its own with one math.Pow per
// key. Every NewZipf draw must equal its draw for the same (seed, s,
// n), whatever tables the cache held or dropped before.
type refZipf struct {
	rng *rand.Rand
	cum []float64
}

func newRefZipf(seed int64, s float64, n int64) *refZipf {
	cum := make([]float64, n)
	total := 0.0
	for k := int64(1); k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	return &refZipf{rng: rand.New(rand.NewSource(seed)), cum: cum}
}

func (z *refZipf) Next() uint32 {
	u := z.rng.Float64() * z.cum[len(z.cum)-1]
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return uint32(i + 1)
}

// resetZipfTables empties the shared table cache, so a test controls
// the order in which tables are built.
func resetZipfTables() {
	zipfTables.mu.Lock()
	defer zipfTables.mu.Unlock()
	zipfTables.byKey, zipfTables.held = nil, 0
}

// heldZipfEntries returns the entries the table cache holds, counted
// from the tables themselves, and its running count.
func heldZipfEntries() (sum, held int64) {
	zipfTables.mu.Lock()
	defer zipfTables.mu.Unlock()
	for _, cum := range zipfTables.byKey {
		sum += int64(len(cum))
	}
	return sum, zipfTables.held
}

// TestZipfBoundedAndDeterministic pins every draw to the reference
// generator: over skews from uniform to the exponent bound, key spaces
// from one key to the PQ delay span, and two seeds, the first 10,000
// draws of NewZipf equal the reference's and stay in [1, n]. The
// tables are built in ascending and then descending n, from an empty
// cache each time, so no draw depends on which tables were built
// first; a cache keyed on n alone hands the first skew's table to the
// rest and fails.
func TestZipfBoundedAndDeterministic(t *testing.T) {
	skews := []float64{0, 0.8, 0.99, 1.2, 3, 64}
	for _, sizes := range [][]int64{{1, 4096, 65536}, {65536, 4096, 1}} {
		resetZipfTables()
		for _, n := range sizes {
			for _, s := range skews {
				for _, seed := range []int64{42, -977} {
					z, err := NewZipf(seed, s, n)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRefZipf(seed, s, n)
					for i := 0; i < 10_000; i++ {
						k, want := z.Next(), ref.Next()
						if k != want {
							t.Fatalf("s=%v n=%d seed %d (sizes %v) draw %d: %d, reference %d", s, n, seed, sizes, i, k, want)
						}
						if k < 1 || int64(k) > n {
							t.Fatalf("s=%v n=%d draw %d: key %d outside [1, %d]", s, n, i, k, n)
						}
					}
				}
			}
		}
	}
}

// TestZipfTablesShared checks the cache itself: generators of one
// (s, n) share one table, a different skew or size gets its own, and
// the entries held never pass MaxZipfKeys — a table that would pass
// it drops the others first, and stays held itself.
func TestZipfTablesShared(t *testing.T) {
	resetZipfTables()
	a, _ := NewZipf(1, 0.99, 4096)
	b, _ := NewZipf(2, 0.99, 4096)
	c, _ := NewZipf(1, 1.2, 4096)
	d, _ := NewZipf(1, 0.99, 8192)
	if &a.cum[0] != &b.cum[0] {
		t.Error("two generators of (0.99, 4096) built separate tables")
	}
	if &a.cum[0] == &c.cum[0] || &a.cum[0] == &d.cum[0] {
		t.Error("a generator shares a table built for another (s, n)")
	}
	for i, n := range []int64{MaxZipfKeys / 2, MaxZipfKeys/2 + 1, 1000, MaxZipfKeys, 3, MaxZipfKeys / 3} {
		s := 0.5 + float64(i%3)
		z, err := NewZipf(int64(i), s, n)
		if err != nil {
			t.Fatal(err)
		}
		sum, held := heldZipfEntries()
		if sum != held || held > MaxZipfKeys {
			t.Fatalf("after n=%d: tables hold %d entries, count says %d, cap %d", n, sum, held, MaxZipfKeys)
		}
		zipfTables.mu.Lock()
		got := zipfTables.byKey[zipfKey{s, n}]
		zipfTables.mu.Unlock()
		if len(got) == 0 || &got[0] != &z.cum[0] {
			t.Fatalf("after n=%d: the newest table is not held", n)
		}
	}
}

// TestZipfTablesConcurrent has 8 goroutines build and draw from
// overlapping (s, n) pairs, one of them large enough to make the cache
// drop its tables; every stream must equal the reference's. Run under
// -race it checks that publishing a table orders its writes before
// every reader's draws.
func TestZipfTablesConcurrent(t *testing.T) {
	resetZipfTables()
	pairs := []struct {
		s float64
		n int64
	}{{0.99, 4096}, {0.99, 8192}, {1.2, 4096}, {0.8, 65536}, {0.99, MaxZipfKeys - 4096}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				p := pairs[(g+r)%len(pairs)]
				seed := int64(g*10 + r)
				z, err := NewZipf(seed, p.s, p.n)
				if err != nil {
					t.Error(err)
					return
				}
				if p.n > 65536 {
					continue // the reference costs a second 2M-entry table
				}
				ref := newRefZipf(seed, p.s, p.n)
				for i := 0; i < 2_000; i++ {
					if k, want := z.Next(), ref.Next(); k != want {
						t.Errorf("goroutine %d (s=%v n=%d) draw %d: %d, reference %d", g, p.s, p.n, i, k, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if sum, held := heldZipfEntries(); sum != held || held > MaxZipfKeys {
		t.Fatalf("tables hold %d entries, count says %d, cap %d", sum, held, MaxZipfKeys)
	}
}

// TestZipfSkew checks the distribution actually skews: with s=0.99
// the hottest decile of keys must dominate, and raising s must
// concentrate it further.
func TestZipfSkew(t *testing.T) {
	share := func(s float64) float64 {
		z, err := NewZipf(7, s, 1000)
		if err != nil {
			t.Fatal(err)
		}
		top := 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			if z.Next() <= 100 {
				top++
			}
		}
		return float64(top) / draws
	}
	low, mid, high := share(0.8), share(0.99), share(1.2)
	if !(low < mid && mid < high) {
		t.Fatalf("top-decile share not increasing in s: %.3f (0.8), %.3f (0.99), %.3f (1.2)", low, mid, high)
	}
	if mid < 0.5 {
		t.Fatalf("s=0.99 top-decile share %.3f, want skewed (>0.5)", mid)
	}
}
