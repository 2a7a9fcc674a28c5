package bench

import (
	"strconv"
	"testing"
)

// TestStrategiesAcceptance asserts the two headline results the
// experiment exists to demonstrate, independent of exact cell values:
//
//   - on the deep sweep point the cache-oblivious vEB order beats
//     subtree clustering (the TLB savings outweigh the coloring
//     coverage it gives up);
//   - hot/cold splitting beats the unsplit tree on the profiled
//     tree-search workload.
func TestStrategiesAcceptance(t *testing.T) {
	tab := experiment(t, "strategies")
	cycles := func(config, keys string) float64 {
		t.Helper()
		for _, r := range tab.Rows {
			if r[0] == config && r[1] == keys {
				v, err := strconv.ParseFloat(r[2], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("no row for %q at %s keys in %v", config, keys, tab.Rows)
		return 0
	}
	p := strategiesParamsFor(false)
	deep := strconv.FormatInt(p.sizes[len(p.sizes)-1], 10)
	veb, cluster := cycles("veb + color", deep), cycles("subtree-cluster + color", deep)
	if veb >= cluster {
		t.Errorf("deep tree (%s keys): veb %.1f cycles/search does not beat clustering %.1f",
			deep, veb, cluster)
	}
	splitN := strconv.FormatInt(p.splitN, 10)
	sp, unsplit := cycles("hot/cold split BST", splitN), cycles("unsplit BST (profiled)", splitN)
	if sp >= unsplit {
		t.Errorf("split workload (%s keys): split %.1f cycles/search does not beat unsplit %.1f",
			splitN, sp, unsplit)
	}

	// The sweep must also carry the mechanism, not just the outcome:
	// vEB's TLB misses per search stay below clustering's on the deep
	// point.
	tlb := func(config, keys string) float64 {
		t.Helper()
		for _, r := range tab.Rows {
			if r[0] == config && r[1] == keys {
				v, err := strconv.ParseFloat(r[4], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("no row for %q at %s keys", config, keys)
		return 0
	}
	if vt, ct := tlb("veb + color", deep), tlb("subtree-cluster + color", deep); vt >= ct {
		t.Errorf("deep tree: veb TLB misses/search %.2f not below clustering's %.2f", vt, ct)
	}
}
