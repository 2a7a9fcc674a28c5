package machine

import (
	"errors"
	"reflect"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
	"ccl/internal/trace"
)

// exercise issues every typed and bulk access once, plus a prefetch
// and a tick, returning the words it read back.
func exercise(t *testing.T, m *Machine, p memsys.Addr) []int64 {
	t.Helper()
	m.StoreInt(p, -7)
	m.StoreFloat(p.Add(8), 2.5)
	m.Store32(p.Add(16), 99)
	m.StoreAddr(p.Add(20), p)
	m.WriteBytes(p.Add(24), []byte{1, 2, 3, 4, 5, 6})
	m.Prefetch(p.Add(256))
	m.Tick(5)
	if err := m.Copy(p.Add(64), p, 30); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 6)
	m.ReadBytes(p.Add(88), b)
	return []int64{
		m.LoadInt(p.Add(64)), int64(m.LoadFloat(p.Add(72))),
		int64(m.Load32(p.Add(80))), int64(m.LoadAddr(p.Add(84))), int64(b[5]),
	}
}

func TestRecorderRecordsDemandStream(t *testing.T) {
	plain := NewScaled(16)
	pp := plain.Arena.Sbrk(512)
	want := exercise(t, plain, pp)

	rec := Record(NewScaled(16))
	p := rec.Arena.Sbrk(512)
	if got := exercise(t, rec.Machine, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded run read %v, plain run %v", got, want)
	}
	if !reflect.DeepEqual(rec.Stats(), plain.Stats()) {
		t.Fatalf("recording changed the charges:\n%+v\nvs\n%+v", rec.Stats(), plain.Stats())
	}

	ld, st := trace.Load, trace.Store
	wantRecs := []trace.Record{
		{Kind: st, Addr: p, Size: 8},
		{Kind: st, Addr: p.Add(8), Size: 8},
		{Kind: st, Addr: p.Add(16), Size: 4},
		{Kind: st, Addr: p.Add(20), Size: memsys.PtrSize},
		{Kind: st, Addr: p.Add(24), Size: 6},
		// The prefetch and the tick leave no record.
		{Kind: ld, Addr: p, Size: 30},
		{Kind: st, Addr: p.Add(64), Size: 30},
		{Kind: ld, Addr: p.Add(88), Size: 6},
		{Kind: ld, Addr: p.Add(64), Size: 8},
		{Kind: ld, Addr: p.Add(72), Size: 8},
		{Kind: ld, Addr: p.Add(80), Size: 4},
		{Kind: ld, Addr: p.Add(84), Size: memsys.PtrSize},
	}
	tr := rec.Trace()
	if !reflect.DeepEqual(tr.Records, wantRecs) {
		t.Fatalf("records:\n%v\nwant\n%v", tr.Records, wantRecs)
	}
	if !reflect.DeepEqual(tr.Config, rec.Cache.Config()) {
		t.Fatal("trace does not carry the machine's geometry")
	}
}

func TestRecorderKeepsPointerPrefetch(t *testing.T) {
	run := func(record bool) (int64, cache.Stats) {
		cfg := cache.ScaledHierarchy(16)
		cfg.TLB.Entries = 0
		m := New(cfg)
		m.PointerPrefetch = true
		p := m.Arena.Sbrk(4096)
		target := p.Add(2048)
		m.Arena.StoreAddr(p, target)
		if record {
			m = Record(m).Machine
		}
		m.LoadAddr(p)
		m.Tick(200)
		return m.Cache.Access(target, 4, cache.Load), m.Stats()
	}
	lat, st := run(true)
	if full := int64(1 + 6 + 64); lat >= full {
		t.Fatalf("recorder dropped the pointer prefetch: %d cycles", lat)
	}
	if plainLat, plainSt := run(false); lat != plainLat || !reflect.DeepEqual(st, plainSt) {
		t.Fatalf("recorded latency %d vs plain %d", lat, plainLat)
	}
}

func TestUnchargedMovesBytesOnly(t *testing.T) {
	m := NewScaled(16)
	p := m.Arena.Sbrk(64)
	m.Tick(3)
	before, now := m.Stats(), m.Now()

	u := Uncharged(m.Arena)
	u.StoreInt(p, 41)
	u.Store32(p.Add(8), 7)
	u.StoreAddr(p.Add(12), p)
	u.Tick(100)
	if u.LoadInt(p) != 41 || u.Load32(p.Add(8)) != 7 || u.LoadAddr(p.Add(12)) != p {
		t.Fatal("uncharged view lost a write")
	}
	if m.Arena.LoadInt(p) != 41 {
		t.Fatal("uncharged write missed the arena")
	}
	if !reflect.DeepEqual(m.Stats(), before) || m.Now() != now {
		t.Fatal("uncharged accesses charged the machine")
	}
}

func TestTopologyCoreChargesOnlyItsCore(t *testing.T) {
	tp := NewTopology(smallTopology(2))
	tp.Arena.AlignBrk(64)
	a := tp.Arena.Sbrk(64)
	c1 := tp.Core(1)
	c1.StoreInt(a, 5)
	c1.Store32(a.Add(8), 6)
	c1.StoreAddr(a.Add(12), a)
	c1.Tick(10)
	if c1.LoadInt(a) != 5 || c1.Load32(a.Add(8)) != 6 || c1.LoadAddr(a.Add(12)) != a {
		t.Fatal("core port lost a write")
	}
	if tp.CoreCycles(0) != 0 {
		t.Fatalf("core 0 charged %d cycles for core 1's accesses", tp.CoreCycles(0))
	}
	if tp.CoreCycles(1) <= 10 {
		t.Fatalf("core 1 cycles = %d, want its accesses and tick", tp.CoreCycles(1))
	}
	if tp.PrivateCache(0).Stats().Levels[0].Accesses != 0 {
		t.Fatal("core 1's accesses reached core 0's cache")
	}
}

func TestBulkOpsChargeOneRange(t *testing.T) {
	// Each bulk op must charge exactly the one multi-block access it
	// replaces: the same Stats as a hand-issued Cache.Access.
	bulk, hand := NewScaled(16), NewScaled(16)
	p := bulk.Arena.Sbrk(1024)
	hand.Arena.Sbrk(1024)
	src := []byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789")

	bulk.WriteBytes(p.Add(40), src)
	hand.Cache.Access(p.Add(40), int64(len(src)), cache.Store)
	if err := bulk.Copy(p.Add(300), p.Add(40), int64(len(src))); err != nil {
		t.Fatal(err)
	}
	hand.Cache.Access(p.Add(40), int64(len(src)), cache.Load)
	hand.Cache.Access(p.Add(300), int64(len(src)), cache.Store)
	got := make([]byte, len(src))
	bulk.ReadBytes(p.Add(300), got)
	hand.Cache.Access(p.Add(300), int64(len(src)), cache.Load)

	if string(got) != string(src) {
		t.Fatalf("read back %q, want %q", got, src)
	}
	if !reflect.DeepEqual(bulk.Stats(), hand.Stats()) {
		t.Fatalf("bulk charges:\n%+v\nhand-paired:\n%+v", bulk.Stats(), hand.Stats())
	}
}

func TestCopyOverlapChargesNothing(t *testing.T) {
	m := NewScaled(16)
	p := m.Arena.Sbrk(64)
	before := m.Stats()
	if err := m.Copy(p.Add(8), p, 16); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("overlapping Copy err = %v, want ErrInvalidArg", err)
	}
	if !reflect.DeepEqual(m.Stats(), before) {
		t.Fatal("failed Copy charged the cache")
	}
}
