package bench

import (
	"strconv"
	"strings"
	"testing"
)

// TestMulticoreAcceptance asserts the experiment's headline results
// independent of exact cell values:
//
//   - packed layouts suffer coherence misses, padded layouts none
//     (counters) or strictly fewer (KV, whose shards still collide
//     occasionally at granule boundaries);
//   - padding lowers cycles per operation;
//   - the read-only control has zero coherence misses and zero
//     invalidations.
func TestMulticoreAcceptance(t *testing.T) {
	tab := experiment(t, "multicore")
	cell := func(prefix string) (cyc float64, coh, inval int64) {
		t.Helper()
		for _, r := range tab.Rows {
			if strings.HasPrefix(r[0], prefix) {
				cyc, err := strconv.ParseFloat(r[2], 64)
				if err != nil {
					t.Fatal(err)
				}
				coh, err := strconv.ParseInt(r[3], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				inval, err := strconv.ParseInt(r[4], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return cyc, coh, inval
			}
		}
		t.Fatalf("no row with prefix %q in %v", prefix, tab.Rows)
		return 0, 0, 0
	}

	pCyc, pCoh, pInval := cell("per-core counters, packed")
	dCyc, dCoh, dInval := cell("per-core counters, padded")
	if pCoh == 0 {
		t.Error("packed counters: no coherence misses")
	}
	if dCoh != 0 {
		t.Errorf("padded counters: %d coherence misses, want 0", dCoh)
	}
	if dInval != 0 {
		t.Errorf("padded counters: %d invalidations, want 0", dInval)
	}
	if pCyc <= dCyc {
		t.Errorf("counters cycles/op: packed %.1f <= padded %.1f", pCyc, dCyc)
	}
	if pInval == 0 {
		t.Error("packed counters: no invalidations")
	}

	kCyc, kCoh, _ := cell("sharded KV, packed")
	qCyc, qCoh, _ := cell("sharded KV, padded")
	if kCoh <= qCoh {
		t.Errorf("KV coherence misses: packed %d <= padded %d", kCoh, qCoh)
	}
	if kCyc <= qCyc {
		t.Errorf("KV cycles/op: packed %.2f <= padded %.2f", kCyc, qCyc)
	}

	_, tCoh, tInval := cell("shared tree search")
	if tCoh != 0 || tInval != 0 {
		t.Errorf("read-only control: %d coherence misses, %d invalidations, want 0/0", tCoh, tInval)
	}
}
