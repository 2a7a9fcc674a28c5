package vis

import (
	"testing"

	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

func newEngine(nvars int) (*BDD, *machine.Machine) {
	m := machine.NewScaled(16)
	return NewBDD(m, heap.New(m.Arena), false, nvars), m
}

func TestConstantsAndVar(t *testing.T) {
	b, _ := newEngine(4)
	if b.Zero() == b.One() {
		t.Fatal("constants collide")
	}
	v := b.Var(2)
	if !b.Eval(v, 1<<2) || b.Eval(v, 0) {
		t.Fatal("Var(2) evaluates wrong")
	}
	// Canonicity: same request, same node.
	if b.Var(2) != v {
		t.Fatal("unique table failed to canonicalize Var")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	b, _ := newEngine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Var(5) did not panic")
		}
	}()
	b.Var(5)
}

func TestBooleanOpsTruthTables(t *testing.T) {
	b, _ := newEngine(2)
	x, y := b.Var(0), b.Var(1)
	cases := []struct {
		name string
		f    memsys.Addr
		want func(a, c bool) bool
	}{
		{"and", b.And(x, y), func(a, c bool) bool { return a && c }},
		{"or", b.Or(x, y), func(a, c bool) bool { return a || c }},
		{"xor", b.Xor(x, y), func(a, c bool) bool { return a != c }},
		{"notx", b.Not(x), func(a, c bool) bool { return !a }},
	}
	for _, tc := range cases {
		for env := uint64(0); env < 4; env++ {
			got := b.Eval(tc.f, env)
			want := tc.want(env&1 == 1, env>>1&1 == 1)
			if got != want {
				t.Errorf("%s(env=%b) = %v, want %v", tc.name, env, got, want)
			}
		}
	}
}

func TestCanonicityAcrossConstructions(t *testing.T) {
	b, _ := newEngine(3)
	x, y, z := b.Var(0), b.Var(1), b.Var(2)
	// Two derivations of the majority function.
	f := b.Or(b.Or(b.And(x, y), b.And(y, z)), b.And(x, z))
	g := b.ITE(x, b.Or(y, z), b.And(y, z))
	if f != g {
		t.Fatal("equivalent functions got different canonical nodes")
	}
	before := b.Nodes()
	_ = b.Or(b.Or(b.And(x, y), b.And(y, z)), b.And(x, z))
	if b.Nodes() != before {
		t.Fatal("rebuilding an existing function created nodes")
	}
}

// TestMultiplierSemantics exhaustively checks the BDD multiplier
// against integer multiplication for small widths.
func TestMultiplierSemantics(t *testing.T) {
	const bits = 3
	b, _ := newEngine(2 * bits)
	as := make([]memsys.Addr, bits)
	bs := make([]memsys.Addr, bits)
	for i := 0; i < bits; i++ {
		as[i] = b.Var(2 * i)
		bs[i] = b.Var(2*i + 1)
	}
	prod := b.multiply(as, bs)
	if len(prod) != 2*bits {
		t.Fatalf("product width %d, want %d", len(prod), 2*bits)
	}
	for a := uint64(0); a < 1<<bits; a++ {
		for c := uint64(0); c < 1<<bits; c++ {
			var env uint64
			for i := 0; i < bits; i++ {
				env |= (a >> i & 1) << (2 * i)
				env |= (c >> i & 1) << (2*i + 1)
			}
			want := a * c
			for i, f := range prod {
				if got := b.Eval(f, env); got != (want>>i&1 == 1) {
					t.Fatalf("bit %d of %d*%d wrong", i, a, c)
				}
			}
		}
	}
}

func TestRunChecksumsMatchAcrossModes(t *testing.T) {
	cfg := Config{Bits: 5, Evals: 300, Seed: 3}
	base := Run(machine.NewScaled(16), Base, cfg)
	cc := Run(machine.NewScaled(16), CCMalloc, cfg)
	if base.Check != cc.Check {
		t.Fatalf("checksums diverge: %d vs %d", base.Check, cc.Check)
	}
	if base.Nodes != cc.Nodes {
		t.Fatalf("node counts diverge: %d vs %d", base.Nodes, cc.Nodes)
	}
	if base.Nodes < 100 {
		t.Fatalf("only %d nodes; workload trivial", base.Nodes)
	}
}

func TestModeString(t *testing.T) {
	if Base.String() != "base" || CCMalloc.String() != "ccmalloc-new-block" {
		t.Fatal("Mode.String broken")
	}
}

func TestBadBitsPanics(t *testing.T) {
	for _, bits := range []int{0, 1, 15} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bits=%d did not panic", bits)
				}
			}()
			Run(machine.NewScaled(16), Base, Config{Bits: bits, Evals: 1})
		}()
	}
}
