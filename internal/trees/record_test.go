package trees

import (
	"math/rand"
	"reflect"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/oracle"
	"ccl/internal/trace"
)

// TestRecordedCTree records the Fig. 5 transparent C-tree — random
// build, Morph, then searches — through machine.Record. Recording must
// not move a single counter, and the captured stream must replay
// clean through the differential oracle.
func TestRecordedCTree(t *testing.T) {
	const n = 2047
	run := func(record bool) (cache.Stats, *machine.Recorder) {
		m := machine.NewScaled(16)
		var rec *machine.Recorder
		if record {
			rec = machine.Record(m)
			m = rec.Machine
		}
		tr := MustBuild(m, heap.New(m.Arena), n, RandomOrder, 11)
		if _, err := tr.Morph(0.5, nil); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 1000; i++ {
			tr.Search(uint32(rng.Intn(2*n)) + 1)
		}
		return m.Stats(), rec
	}
	want, _ := run(false)
	got, rec := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recording moved the counters:\n%+v\nvs\n%+v", got, want)
	}
	if len(rec.Trace().Records) == 0 {
		t.Fatal("C-tree run recorded no accesses")
	}
	if d := oracle.Diff(rec.Trace()); d != nil {
		t.Fatalf("recorded C-tree stream diverged from the oracle: %v", d)
	}
	// The stream is the whole run: replayed cold, it reproduces the
	// run's demand accesses and misses at every level.
	h, _, err := trace.Replay(rec.Trace())
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range h.Stats().Levels {
		if w := want.Levels[i]; l.Accesses != w.Accesses || l.Misses != w.Misses {
			t.Fatalf("L%d replay: %d accesses, %d misses; run: %d, %d",
				i+1, l.Accesses, l.Misses, w.Accesses, w.Misses)
		}
	}
}
