package radiance

import (
	"testing"

	"ccl/internal/machine"
)

// small returns a quick configuration for correctness tests.
func small() Config {
	return Config{Spheres: 120, MaxDepth: 5, LeafItems: 2, Width: 24, Height: 16, Frames: 1, Bounces: 1, Seed: 4}
}

func TestChecksumsMatchAcrossModes(t *testing.T) {
	cfg := small()
	base := Run(machine.NewScaled(16), Base, cfg)
	if base.Check == 0 {
		t.Fatal("no rays hit anything; scene degenerate")
	}
	for _, mode := range []Mode{Cluster, ClusterColor} {
		r := Run(machine.NewScaled(16), mode, cfg)
		if r.Check != base.Check {
			t.Errorf("%v: checksum %d != base %d", mode, r.Check, base.Check)
		}
		if r.Arrays != base.Arrays {
			t.Errorf("%v: array count %d != base %d", mode, r.Arrays, base.Arrays)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(machine.NewScaled(16), ClusterColor, small())
	b := Run(machine.NewScaled(16), ClusterColor, small())
	if a.Cycles() != b.Cycles() || a.Check != b.Check {
		t.Fatal("identical runs diverged")
	}
}

func TestFramesScaleWork(t *testing.T) {
	cfg := small()
	one := Run(machine.NewScaled(16), Base, cfg)
	cfg.Frames = 3
	three := Run(machine.NewScaled(16), Base, cfg)
	if three.Cycles() <= one.Cycles() {
		t.Fatal("more frames should cost more cycles")
	}
	if three.Check != one.Check {
		t.Fatal("frames changed the image")
	}
}

func TestTraversalOnlyReducesCycles(t *testing.T) {
	cfg := small()
	full := Run(machine.NewScaled(16), Base, cfg)
	cfg.TraversalOnly = true
	trav := Run(machine.NewScaled(16), Base, cfg)
	if trav.Cycles() >= full.Cycles() {
		t.Fatal("TraversalOnly should exclude construction cycles")
	}
}

func TestModeString(t *testing.T) {
	if Base.String() != "base" || Cluster.String() != "clustering" || ClusterColor.String() != "clustering+coloring" {
		t.Fatal("Mode.String broken")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Spheres: 0, MaxDepth: 5},
		{Spheres: 10, MaxDepth: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			Run(machine.NewScaled(16), Base, cfg)
		}()
	}
}

func TestOctreeWordTagging(t *testing.T) {
	// Item-list addresses are 4-aligned, so the leaf tag never
	// corrupts an address.
	m := machine.NewScaled(16)
	r := Run(m, Base, small())
	if r.Arrays == 0 {
		t.Fatal("no arrays built")
	}
}
