package bench

import (
	"strconv"
	"strings"
	"testing"
)

// servingRow finds the first row matching workload, config prefix,
// and Zipf s, returning (cycles/op, hot miss/Kop, hit rate).
func servingRow(t *testing.T, tab Table, workload, config, zs string) (cyc, hotMiss, hitRate float64) {
	t.Helper()
	for _, r := range tab.Rows {
		if r[0] == workload && strings.HasPrefix(r[1], config) && r[2] == zs {
			pf := func(s string) float64 {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			return pf(r[4]), pf(r[8]), pf(r[9])
		}
	}
	t.Fatalf("no row for %s/%s/s=%s", workload, config, zs)
	return
}

// TestServingAcceptance asserts the experiment's headline results
// independent of exact cell values:
//
//   - at s=0.99 at least one cache-conscious KV variant beats the
//     conventional AoS+malloc baseline on cycles/op, and the win is
//     attributed: the winner's hot-region (probe header) misses are
//     lower too;
//   - the hit rate is identical across every KV variant at a given
//     skew — same op stream, different layout;
//   - the colored store's probe stripe is effectively conflict-free
//     against the baseline's bucket region;
//   - the 4-ary (line-matched) heap beats the binary heap.
func TestServingAcceptance(t *testing.T) {
	tab := experiment(t, "serving")

	baseCyc, baseHotMiss, baseHit := servingRow(t, tab, "kv", "aos malloc", "0.99")
	bestCyc, bestHotMiss := baseCyc, baseHotMiss
	bestConfig := "aos malloc"
	for _, config := range []string{"aos ccmalloc", "split malloc", "split ccmalloc", "split colored"} {
		cyc, hot, hit := servingRow(t, tab, "kv", config, "0.99")
		if hit != baseHit {
			t.Errorf("kv %s: hit rate %v differs from baseline %v — op streams diverged", config, hit, baseHit)
		}
		if cyc < bestCyc {
			bestCyc, bestHotMiss, bestConfig = cyc, hot, config
		}
	}
	if bestConfig == "aos malloc" {
		t.Fatalf("no cache-conscious kv variant beat the conventional baseline (%.1f cycles/op)", baseCyc)
	}
	if bestHotMiss >= baseHotMiss {
		t.Errorf("winner %s has hot-region misses %.1f/Kop, baseline %.1f/Kop — win not attributed to the probe path",
			bestConfig, bestHotMiss, baseHotMiss)
	}

	colCyc, colHotMiss, _ := servingRow(t, tab, "kv", "split colored", "0.99")
	if colCyc >= baseCyc {
		t.Errorf("colored store (%.1f cycles/op) did not beat conventional (%.1f)", colCyc, baseCyc)
	}
	if colHotMiss*10 >= baseHotMiss {
		t.Errorf("colored probe stripe misses %.1f/Kop not an order below baseline %.1f/Kop", colHotMiss, baseHotMiss)
	}

	bin, _, _ := servingRow(t, tab, "pq", "2-ary", "0.99")
	quad, _, _ := servingRow(t, tab, "pq", "4-ary", "0.99")
	if quad >= bin {
		t.Errorf("4-ary heap (%.1f cycles/op) did not beat binary (%.1f)", quad, bin)
	}

	// The headline note must carry the attribution.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "kv s=0.99") && strings.Contains(n, "hot-region misses") {
			found = true
		}
	}
	if !found {
		t.Error("serving table carries no attribution note for the kv s=0.99 win")
	}
}
