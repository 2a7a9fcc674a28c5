package treeadd

import (
	"reflect"
	"testing"

	"ccl/internal/machine"
	"ccl/internal/olden"
	"ccl/internal/oracle"
)

func TestSumMatchesClosedForm(t *testing.T) {
	// Values are assigned 1..n in build order, so the sum is
	// n(n+1)/2 regardless of layout.
	cfg := Config{Depth: 10, Repeats: 1}
	n := cfg.Nodes()
	want := uint64(n) * uint64(n+1) / 2
	for _, v := range []olden.Variant{olden.Base, olden.CCMallocNewBlock, olden.CCMorphClusterColor, olden.SWPrefetch, olden.HWPrefetch} {
		r := Run(olden.NewEnv(v, 16), cfg)
		if r.Check != want {
			t.Errorf("%s: sum = %d, want %d", v.Name(), r.Check, want)
		}
	}
}

func TestNodesCount(t *testing.T) {
	if (Config{Depth: 5}).Nodes() != 31 {
		t.Fatal("Nodes() wrong")
	}
	if DefaultConfig().Nodes() >= PaperConfig().Nodes() {
		t.Fatal("default config should be smaller than paper scale")
	}
}

func TestRepeatsScaleWork(t *testing.T) {
	one := Run(olden.NewEnv(olden.Base, 16), Config{Depth: 10, Repeats: 1})
	three := Run(olden.NewEnv(olden.Base, 16), Config{Depth: 10, Repeats: 3})
	if three.Cycles() <= one.Cycles() {
		t.Fatal("more repeats should cost more cycles")
	}
	if three.Check != one.Check {
		t.Fatal("repeats changed the sum")
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(olden.NewEnv(olden.CCMallocClosest, 16), Config{Depth: 9, Repeats: 2})
	b := Run(olden.NewEnv(olden.CCMallocClosest, 16), Config{Depth: 9, Repeats: 2})
	if a.Cycles() != b.Cycles() || a.Check != b.Check {
		t.Fatal("identical runs diverged")
	}
}

func TestMorphReducesTraversalMisses(t *testing.T) {
	// With enough repeats, the reorganized tree's denser packing
	// must show up as fewer L2 misses than base, even though total
	// cycles stay close (the build is sequential either way).
	base := Run(olden.NewEnv(olden.Base, 8), Config{Depth: 13, Repeats: 10})
	cl := Run(olden.NewEnv(olden.CCMorphCluster, 8), Config{Depth: 13, Repeats: 10})
	if cl.Stats.Levels[1].Misses >= base.Stats.Levels[1].Misses {
		t.Errorf("morphed L2 misses %d not below base %d",
			cl.Stats.Levels[1].Misses, base.Stats.Levels[1].Misses)
	}
}

// TestRecordedVariants records treeadd under HP, SP and Cl+Col
// through machine.Record. Recording must leave every counter as an
// unrecorded run leaves it, and the captured demand stream must replay
// clean through the differential oracle.
func TestRecordedVariants(t *testing.T) {
	cfg := Config{Depth: 10, Repeats: 2}
	for _, v := range []olden.Variant{olden.HWPrefetch, olden.SWPrefetch, olden.CCMorphClusterColor} {
		want := Run(olden.NewEnv(v, 16), cfg)
		env := olden.NewEnv(v, 16)
		rec := machine.Record(env.M)
		env.M = rec.Machine
		got := Run(env, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recording changed the result:\n%+v\nvs\n%+v", v, got, want)
		}
		if len(rec.Trace().Records) == 0 {
			t.Fatalf("%s: run recorded no accesses", v)
		}
		if d := oracle.Diff(rec.Trace()); d != nil {
			t.Fatalf("%s: recorded stream diverged from the oracle: %v", v, d)
		}
	}
}
