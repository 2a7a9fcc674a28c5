package serving

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/shrink"
)

type pqOp struct {
	Kind byte // 0 push, 1 pop
	Pri  int64
	Pay  int64
}

// pqMismatch replays ops against a fresh queue and a sorted reference
// multiset, checking pop order, the (pri, payload) pairing, and the
// heap invariant after every op.
func pqMismatch(arity int64, ops []pqOp) string {
	m := machine.NewScaled(16)
	q, err := NewPQueue(m, PQConfig{Arity: arity, Cap: 64})
	if err != nil {
		return fmt.Sprintf("NewPQueue: %v", err)
	}
	type elem struct{ pri, pay int64 }
	var model []elem // sorted by pri, stable-insertion among equals is not required
	for i, op := range ops {
		switch op.Kind % 2 {
		case 0:
			err := q.Push(op.Pri, op.Pay)
			if len(model) >= 64 {
				if !errors.Is(err, cclerr.ErrOutOfMemory) {
					return fmt.Sprintf("op %d: push on full queue: %v, want ErrOutOfMemory", i, err)
				}
				break
			}
			if err != nil {
				return fmt.Sprintf("op %d: Push: %v", i, err)
			}
			model = append(model, elem{op.Pri, op.Pay})
			sort.Slice(model, func(a, b int) bool { return model[a].pri < model[b].pri })
		case 1:
			pri, pay, ok := q.Pop()
			if len(model) == 0 {
				if ok {
					return fmt.Sprintf("op %d: pop on empty queue returned (%d, %d)", i, pri, pay)
				}
				break
			}
			if !ok {
				return fmt.Sprintf("op %d: pop on %d-element queue returned !ok", i, len(model))
			}
			if pri != model[0].pri {
				return fmt.Sprintf("op %d: popped pri %d, model min %d", i, pri, model[0].pri)
			}
			// Equal priorities may pop in any order; find the matching
			// (pri, pay) pair among the tied front run.
			found := -1
			for j := 0; j < len(model) && model[j].pri == pri; j++ {
				if model[j].pay == pay {
					found = j
					break
				}
			}
			if found < 0 {
				return fmt.Sprintf("op %d: popped payload %d not paired with pri %d in model", i, pay, pri)
			}
			model = append(model[:found], model[found+1:]...)
		}
		if q.Len() != int64(len(model)) {
			return fmt.Sprintf("op %d: Len %d, model %d", i, q.Len(), len(model))
		}
		if err := q.CheckInvariants(); err != nil {
			return fmt.Sprintf("op %d: %v", i, err)
		}
	}
	return ""
}

// TestPQPropertyModelEquivalence checks each arity against the sorted
// multiset model under random push/pop sequences, shrinking failures.
func TestPQPropertyModelEquivalence(t *testing.T) {
	for _, arity := range []int64{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("arity=%d", arity), func(t *testing.T) {
			gen := func(rng *rand.Rand) []pqOp {
				ops := make([]pqOp, 150+rng.Intn(100))
				for i := range ops {
					// Push-biased so the queue fills and deep sift paths run.
					ops[i] = pqOp{Kind: byte(rng.Intn(3) / 2), Pri: int64(rng.Intn(32)), Pay: rng.Int63()}
				}
				return ops
			}
			fails := func(ops []pqOp) bool { return pqMismatch(arity, ops) != "" }
			shrink.Check(t, 0x60+arity, 20, gen, fails)
		})
	}
}

// TestPQSortedDrain pushes a permutation and verifies a full drain
// pops priorities in nondecreasing order with payloads intact.
func TestPQSortedDrain(t *testing.T) {
	for _, arity := range []int64{2, 4, 8} {
		m := machine.NewScaled(16)
		q, err := NewPQueue(m, PQConfig{Arity: arity, Cap: 512})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		want := map[int64]int64{}
		for i := int64(0); i < 512; i++ {
			pri := rng.Int63n(1 << 40)
			for want[pri] != 0 {
				pri++
			}
			want[pri] = ^i
			if err := q.Push(pri, ^i); err != nil {
				t.Fatal(err)
			}
		}
		prev := int64(-1)
		for q.Len() > 0 {
			pri, pay, ok := q.Pop()
			if !ok {
				t.Fatalf("arity %d: pop failed with %d left", arity, q.Len())
			}
			if pri < prev {
				t.Fatalf("arity %d: pop order violated: %d after %d", arity, pri, prev)
			}
			if want[pri] != pay {
				t.Fatalf("arity %d: pri %d carries payload %d, want %d", arity, pri, pay, want[pri])
			}
			prev = pri
		}
	}
}

// TestPQAlignment verifies element 1 — the start of the first sibling
// group — lands on a last-level block boundary, so a 4-ary group is
// exactly one 64-byte line.
func TestPQAlignment(t *testing.T) {
	m := machine.NewScaled(16)
	q, err := NewPQueue(m, PQConfig{Arity: 4, Cap: 64})
	if err != nil {
		t.Fatal(err)
	}
	block := layout.FromLevel(m.Cache.LastLevel()).BlockSize
	if got := int64(q.elem(1)) % block; got != 0 {
		t.Fatalf("element 1 at %v, offset %d into a %d-byte block", q.elem(1), got, block)
	}
}

// TestPQTypedErrors covers configuration rejection and the empty-pop
// contract.
func TestPQTypedErrors(t *testing.T) {
	m := machine.NewScaled(16)
	for _, cfg := range []PQConfig{
		{Arity: 1, Cap: 8}, {Arity: 3, Cap: 8}, {Arity: 32, Cap: 8},
		{Arity: 4, Cap: 0}, {Arity: 4, Cap: maxPQCap + 1},
	} {
		if _, err := NewPQueue(m, cfg); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Errorf("NewPQueue(%+v): error %v, want ErrInvalidArg", cfg, err)
		}
	}
	q, err := NewPQueue(m, PQConfig{Arity: 4, Cap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}
