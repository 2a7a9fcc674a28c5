package bench

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ccl/internal/olden"
	"ccl/internal/telemetry"
)

// claim is one shape or acceptance assertion the reproduction makes,
// stated over one experiment's quick-scale table.
type claim struct {
	exp, name string
	holds     func(v *view) bool
}

// view is a claim's window on one table of the pooled registry run. It
// records every value the claim reads, for the failure message.
type view struct {
	t    *testing.T
	tab  Table
	read []string
}

// num returns the number a cell starts with: the cell of the row
// whose leading cells, joined by "/", equal key, under the column
// headed col. "91.4%", "392KB", "2.90" and "124933 (5553/92528/26852)"
// read 91.4, 392, 2.9 and 124933. A missing column, a key that names
// no row or more than one, or a cell without a number fails the claim.
func (v *view) num(key, col string) float64 {
	v.t.Helper()
	j := slices.Index(v.tab.Header, col)
	if j < 0 {
		v.t.Fatalf("%s has no column %q in %q", v.tab.ID, col, v.tab.Header)
	}
	var cell string
	rows := 0
	for _, r := range v.tab.Rows {
		if j >= len(r) {
			continue
		}
		for k := 1; k <= j; k++ {
			if strings.Join(r[:k], "/") == key {
				cell, rows = r[j], rows+1
				break
			}
		}
	}
	if rows != 1 {
		v.t.Fatalf("%s: key %q names %d rows with a %q cell, want 1", v.tab.ID, key, rows, col)
	}
	n, _, _ := strings.Cut(cell, " ")
	x, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(n, "%"), "KB"), 64)
	if err != nil {
		v.t.Fatalf("%s: %s[%s] = %q is not a number", v.tab.ID, key, col, cell)
	}
	v.read = append(v.read, fmt.Sprintf("%s[%s]=%s", key, col, cell))
	return x
}

// report returns the telemetry the table carries for phase.
func (v *view) report(phase string) telemetry.Report {
	v.t.Helper()
	rep, ok := v.tab.Telemetry[phase]
	if !ok {
		v.t.Fatalf("%s carries no telemetry for phase %q", v.tab.ID, phase)
	}
	return rep
}

// regionAccesses returns the accesses phase's telemetry attributes to
// the region labeled label.
func (v *view) regionAccesses(phase, label string) int64 {
	v.t.Helper()
	for _, r := range v.report(phase).Regions {
		if r.Label == label {
			v.read = append(v.read, fmt.Sprintf("%s region %s accesses=%d", phase, label, r.Accesses))
			return r.Accesses
		}
	}
	v.t.Fatalf("%s: phase %q has no region %q", v.tab.ID, phase, label)
	return 0
}

// noted reports whether one of the table's notes contains every part.
func (v *view) noted(parts ...string) bool {
	v.read = append(v.read, fmt.Sprintf("notes %q", v.tab.Notes))
	return slices.ContainsFunc(v.tab.Notes, func(n string) bool {
		for _, p := range parts {
			if !strings.Contains(n, p) {
				return false
			}
		}
		return true
	})
}

// TestClaims checks every claim against the pooled registry run, one
// subtest per claim: TestClaims/<experiment>/<claim>. A missing table,
// row, column or telemetry phase fails the claim that reads it.
func TestClaims(t *testing.T) {
	for _, c := range claims() {
		t.Run(c.exp+"/"+c.name, func(t *testing.T) {
			v := &view{t: t, tab: experiment(t, c.exp)}
			if !c.holds(v) {
				t.Errorf("claim does not hold; it read %s", strings.Join(v.read, ", "))
			}
		})
	}
}

// claims lists the reproduction's shape and acceptance claims
// (DESIGN.md §4, EXPERIMENTS.md), grouped by the experiment whose
// table they read.
func claims() []claim {
	// Fig. 5's orderings are read at the last checkpoint, the longest
	// run, where every layout has reached its steady state.
	cps := fig5Inputs.at(false).checkpoints
	steady := strconv.Itoa(cps[len(cps)-1])
	const (
		random = "random-clustered binary tree"
		dfs    = "depth-first clustered binary tree"
		btree  = "in-core B-tree (colored)"
		ctree  = "transparent C-tree"
	)
	search := func(v *view, tree string) float64 { return v.num(tree, steady) }
	cycles := func(v *view, row string) float64 { return v.num(row, "cycles") }
	norm := func(v *view, bench, scheme string) float64 { return v.num(bench+"/"+scheme, "norm") }
	kv := func(v *view, config, col string) float64 { return v.num("kv/"+config+"/0.99", col) }
	kvLayouts := []string{"aos ccmalloc", "split malloc", "split ccmalloc", "split colored"}
	const (
		packed   = "per-core counters, packed (stride 8)"
		padded   = "per-core counters, padded (stride 64)"
		kvPacked = "sharded KV, packed stats block (stride 16)"
		kvPadded = "sharded KV, padded stats block (stride 64)"
		tree     = "shared tree search (read-only control)"
	)
	sp := strategiesInputs.at(false)
	deep := strconv.FormatInt(sp.sizes[len(sp.sizes)-1], 10)
	splitN := strconv.FormatInt(sp.splitN, 10)

	cs := []claim{
		// §4.2, Fig. 5: on a tree far larger than the L2, the C-tree
		// beats the B-tree, which beats depth-first, which beats random.
		{"fig5", "ctree-beats-btree", func(v *view) bool { return search(v, ctree) < search(v, btree) }},
		{"fig5", "btree-beats-random", func(v *view) bool { return search(v, btree) < search(v, random) }},
		{"fig5", "depth-first-beats-random", func(v *view) bool { return search(v, dfs) < search(v, random) }},
		{"fig5", "ctree-beats-depth-first", func(v *view) bool { return search(v, ctree) < search(v, dfs) }},
		{"fig5", "ctree-at-least-2x-random", func(v *view) bool { return search(v, random)/search(v, ctree) >= 2 }},

		// §4.3, Fig. 6: clustering plus coloring speeds RADIANCE up and
		// clustering alone does not lose materially; ccmalloc's
		// new-block speeds VIS up.
		{"fig6", "radiance-clustering+coloring-beats-base", func(v *view) bool {
			return cycles(v, "RADIANCE clustering+coloring") < cycles(v, "RADIANCE base")
		}},
		{"fig6", "radiance-clustering-within-3pct-of-base", func(v *view) bool {
			return cycles(v, "RADIANCE clustering") <= 1.03*cycles(v, "RADIANCE base")
		}},
		{"fig6", "vis-new-block-beats-base", func(v *view) bool {
			return cycles(v, "VIS ccmalloc-new-block") < cycles(v, "VIS base")
		}},
		{"fig6", "vis-speedup-at-least-1.08x", func(v *view) bool {
			return cycles(v, "VIS base")/cycles(v, "VIS ccmalloc-new-block") >= 1.08
		}},

		// §4.4, Fig. 7, health: every cache-conscious placement beats
		// base, and ccmorph beats both prefetching schemes.
		{"fig7", "health-placement-beats-base", func(v *view) bool {
			ok := true
			for _, s := range []string{"FA", "CA", "NA", "Cl", "Cl+Col"} {
				ok = norm(v, "health", s) < 100 && ok
			}
			return ok
		}},
		{"fig7", "health-ccmorph-beats-sw-prefetch", func(v *view) bool {
			return norm(v, "health", "Cl+Col") < norm(v, "health", "SP")
		}},
		{"fig7", "health-ccmorph-beats-hw-prefetch", func(v *view) bool {
			return norm(v, "health", "Cl+Col") < norm(v, "health", "HP")
		}},
		// mst: new-block beats the other strategies, ccmorph wins big,
		// and prefetching is nearly useless on hash chains.
		{"fig7", "mst-new-block-beats-first-fit", func(v *view) bool { return norm(v, "mst", "NA") < norm(v, "mst", "FA") }},
		{"fig7", "mst-new-block-beats-closest", func(v *view) bool { return norm(v, "mst", "NA") < norm(v, "mst", "CA") }},
		{"fig7", "mst-new-block-under-90pct", func(v *view) bool { return norm(v, "mst", "NA") < 90 }},
		{"fig7", "mst-clustering-under-70pct", func(v *view) bool { return norm(v, "mst", "Cl") < 70 }},
		{"fig7", "mst-prefetch-at-least-85pct", func(v *view) bool {
			return norm(v, "mst", "HP") >= 85 && norm(v, "mst", "SP") >= 85
		}},
		{"fig7", "mst-new-block-beats-prefetch", func(v *view) bool {
			return norm(v, "mst", "NA") < norm(v, "mst", "HP") && norm(v, "mst", "NA") < norm(v, "mst", "SP")
		}},
		// treeadd: allocation order already matches traversal order,
		// so hinted allocation gains modestly, ccmorph does not lose,
		// and prefetching is competitive.
		{"fig7", "treeadd-first-fit-gains-0-to-20pct", func(v *view) bool {
			fa := norm(v, "treeadd", "FA")
			return fa < 100 && fa >= 80
		}},
		{"fig7", "treeadd-ccmorph-beats-base", func(v *view) bool { return norm(v, "treeadd", "Cl+Col") < 100 }},
		{"fig7", "treeadd-sw-prefetch-beats-base", func(v *view) bool { return norm(v, "treeadd", "SP") < 100 }},
		// perimeter: the quadtree is built in traversal order; hinted
		// allocation edges out base, and ccmorph's one-time copy keeps
		// it within an envelope.
		{"fig7", "perimeter-first-fit-beats-base", func(v *view) bool { return norm(v, "perimeter", "FA") < 100 }},
		{"fig7", "perimeter-ccmorph-at-most-115pct", func(v *view) bool { return norm(v, "perimeter", "Cl+Col") <= 115 }},
		// Every cell charges busy time (busy, L1-hit and prefetch-issue
		// cycles, the table's busy bar).
		{"fig7", "every-cell-has-busy-cycles", func(v *view) bool {
			ok := true
			for _, b := range oldenBenches {
				for _, s := range olden.Figure7Variants {
					ok = v.num(b.name+"/"+s.String(), "busy") > 0 && ok
				}
			}
			return ok
		}},

		// §4.4 memory overheads: health's churn shows new-block's page
		// spreading against base, new-block never needs less heap than
		// first-fit, and on the churning benchmarks its reservations
		// cost real cache blocks.
		{"memovh", "health-new-block-heap-above-base", func(v *view) bool {
			return v.num("health", "new-block") > v.num("health", "base")
		}},
		{"memovh", "new-block-heap-at-least-first-fit", func(v *view) bool {
			ok := true
			for _, b := range oldenBenches {
				ok = v.num(b.name, "new-block") >= v.num(b.name, "first-fit") && ok
			}
			return ok
		}},
		{"memovh", "health-new-block-takes-more-blocks", func(v *view) bool {
			return v.num("health", "NA blocks") > v.num("health", "FA blocks")
		}},
		{"memovh", "perimeter-new-block-takes-more-blocks", func(v *view) bool {
			return v.num("perimeter", "NA blocks") > v.num("perimeter", "FA blocks")
		}},

		// The metrics experiment: the morph cuts last-level misses, and
		// after it every search reads the new layout and none the old.
		{"metrics", "ctree-fewer-LL-misses-than-bst-base", func(v *view) bool {
			return v.num("ctree/L2 misses (comp/cap/conf)", "Value") < v.num("bst-base/L2 misses (comp/cap/conf)", "Value")
		}},
		{"metrics", "ctree-searches-read-the-new-layout", func(v *view) bool {
			return v.regionAccesses("ctree", "ctree-nodes") > 0
		}},
		{"metrics", "ctree-searches-leave-the-old-layout", func(v *view) bool {
			return v.regionAccesses("ctree", "bst-nodes(old)") == 0
		}},

		// Color_const: coloring adds over clustering alone, and every
		// fraction beats the naive tree.
		{"ablate-color", "coloring-adds-over-clustering", func(v *view) bool {
			return v.num("0.500", "speedup vs naive") > v.num("0.000", "speedup vs naive")
		}},
		{"ablate-color", "every-fraction-beats-naive", func(v *view) bool {
			ok := true
			for _, f := range colorFracs {
				ok = v.num(fmt.Sprintf("%.3f", f), "speedup vs naive") >= 1 && ok
			}
			return ok
		}},
		// Block size: the clustering speedup grows with the L2 block,
		// as the model's K = log2(k+1) does.
		{"ablate-block", "speedup-grows-with-block-size", func(v *view) bool {
			ok, prev := true, 0.0
			for _, bs := range blockSizes {
				s := v.num(fmt.Sprintf("%dB", bs), "measured speedup")
				ok = s > prev && ok
				prev = s
			}
			return ok
		}},

		// strategies: on the deep tree the vEB order beats subtree
		// clustering through fewer TLB misses, and hot/cold splitting
		// beats the unsplit profiled tree.
		{"strategies", "deep-tree-veb-beats-clustering", func(v *view) bool {
			return v.num("veb + color/"+deep, "Cycles") < v.num("subtree-cluster + color/"+deep, "Cycles")
		}},
		{"strategies", "deep-tree-veb-takes-fewer-TLB-misses", func(v *view) bool {
			return v.num("veb + color/"+deep, "TLB misses") < v.num("subtree-cluster + color/"+deep, "TLB misses")
		}},
		{"strategies", "hot-cold-split-beats-unsplit", func(v *view) bool {
			return v.num("hot/cold split BST/"+splitN, "Cycles") < v.num("unsplit BST (profiled)/"+splitN, "Cycles")
		}},

		// multicore: packed layouts take coherence misses and padded
		// ones none, padding lowers cycles per operation, and the
		// read-only control takes no coherence traffic.
		{"multicore", "packed-counters-take-coherence-misses", func(v *view) bool { return v.num(packed, "Coherence misses") > 0 }},
		{"multicore", "packed-counters-take-invalidations", func(v *view) bool { return v.num(packed, "Invalidations") > 0 }},
		{"multicore", "padded-counters-take-no-coherence-misses", func(v *view) bool { return v.num(padded, "Coherence misses") == 0 }},
		{"multicore", "padded-counters-take-no-invalidations", func(v *view) bool { return v.num(padded, "Invalidations") == 0 }},
		{"multicore", "padding-cuts-counter-cycles", func(v *view) bool { return v.num(packed, "Cycles/op") > v.num(padded, "Cycles/op") }},
		{"multicore", "packed-kv-takes-more-coherence-misses", func(v *view) bool {
			return v.num(kvPacked, "Coherence misses") > v.num(kvPadded, "Coherence misses")
		}},
		{"multicore", "padding-cuts-kv-cycles", func(v *view) bool { return v.num(kvPacked, "Cycles/op") > v.num(kvPadded, "Cycles/op") }},
		{"multicore", "read-only-tree-takes-no-coherence-traffic", func(v *view) bool {
			return v.num(tree, "Coherence misses") == 0 && v.num(tree, "Invalidations") == 0
		}},

		// serving, at Zipf s=0.99: a cache-conscious KV layout beats the
		// conventional AoS+malloc baseline and fewer hot-region misses
		// explain the win; the colored probe stripe is an order of
		// magnitude below the baseline; the 4-ary heap beats the binary.
		{"serving", "kv-layout-beats-baseline", func(v *view) bool {
			best := kv(v, "aos malloc", "Cycles/op")
			for _, c := range kvLayouts {
				best = min(best, kv(v, c, "Cycles/op"))
			}
			return best < kv(v, "aos malloc", "Cycles/op")
		}},
		{"serving", "kv-win-is-on-the-probe-path", func(v *view) bool {
			best, hot := kv(v, "aos malloc", "Cycles/op"), kv(v, "aos malloc", "Hot miss/Kop")
			for _, c := range kvLayouts {
				if cyc := kv(v, c, "Cycles/op"); cyc < best {
					best, hot = cyc, kv(v, c, "Hot miss/Kop")
				}
			}
			return hot < kv(v, "aos malloc", "Hot miss/Kop")
		}},
		{"serving", "kv-hit-rate-same-for-every-layout", func(v *view) bool {
			ok := true
			for _, c := range kvLayouts {
				ok = kv(v, c, "Hit rate") == kv(v, "aos malloc", "Hit rate") && ok
			}
			return ok
		}},
		{"serving", "kv-colored-beats-baseline", func(v *view) bool {
			return kv(v, "split colored", "Cycles/op") < kv(v, "aos malloc", "Cycles/op")
		}},
		{"serving", "kv-colored-stripe-misses-10x-below-baseline", func(v *view) bool {
			return 10*kv(v, "split colored", "Hot miss/Kop") < kv(v, "aos malloc", "Hot miss/Kop")
		}},
		{"serving", "pq-4-ary-beats-binary", func(v *view) bool {
			return v.num("pq/4-ary aligned/0.99", "Cycles/op") < v.num("pq/2-ary aligned/0.99", "Cycles/op")
		}},
		{"serving", "kv-win-noted-with-its-hot-region-misses", func(v *view) bool {
			return v.noted("kv s=0.99", "hot-region misses")
		}},
	}

	for _, b := range oldenBenches {
		cs = append(cs,
			// Table 2's Memory column is measured from the base run.
			claim{"table2", b.name + "-memory-measured", func(v *view) bool { return v.num(b.name, "Memory") > 0 }},
			// §4.4's control: ccmalloc with every hint nil is slower than
			// base by a modest margin (the paper measured 2-6%).
			claim{"control", b.name + "-null-hint-slower-than-base", func(v *view) bool {
				return 100*v.num(b.name, "null-hint cycles")/v.num(b.name, "base cycles") > 100 && v.num(b.name, "slowdown") > 0
			}},
			claim{"control", b.name + "-null-hint-at-most-15pct-slower", func(v *view) bool {
				return 100*v.num(b.name, "null-hint cycles")/v.num(b.name, "base cycles") <= 115
			}})
	}
	phases := []string{"bst-base", "ctree"}
	for _, m := range metricsRadModes {
		phases = append(phases, "radiance-"+m.String())
	}
	for _, p := range phases {
		// Every metrics phase carries level counters and a heatmap.
		cs = append(cs, claim{"metrics", p + "-telemetry-recorded", func(v *view) bool {
			rep := v.report(p)
			v.read = append(v.read, fmt.Sprintf("%s: %d levels, %d heatmap sets", p, len(rep.Levels), rep.Heatmap.Sets))
			return len(rep.Levels) > 0 && rep.Levels[0].Accesses > 0 && rep.Heatmap.Sets > 0
		}})
	}
	return cs
}
