package main

import (
	"container/heap"
	"container/list"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ccl/internal/apps/serving"
	"ccl/internal/machine"
	"ccl/internal/mc"
	"ccl/internal/telemetry"
)

// The layout-race workload sizes follow ccbench's serving experiment
// (internal/bench/serving.go): a 64 KB direct-mapped last level, a KV
// table at 2/3 occupancy whose split header array fits the last level
// while the AoS slots do not, a 1024-entry LRU over 8192 keys, and a
// 4096-element 4-ary heap.
const (
	raceScale    = 16
	raceZipfS    = 0.99
	kvKeys       = 4096
	kvSlots      = 4096
	kvPutEvery   = 8
	lruKeys      = 8192
	lruCap       = 1024
	lruIdx       = 4096
	pqFill       = 4096
	pqArity      = 4
	pqDelaySpan  = 1 << 16
	mcCores      = 4
	mcSlots      = 1024
	mcKeyRange   = 512
	mcStride     = 16 // packed: four cores' stats pairs share one 64-byte granule
	roundOps     = 4000
	mcOpsPerCore = 1000
	// cycleRounds is how many leading rounds the simulated-cycle
	// metrics cover, so they are identical for a seed however many
	// rounds the host manages in the measured window.
	cycleRounds = 5
	// raceSetups is how many builds the set-up time is the median of.
	raceSetups = 15
)

// derive maps (seed, stream, index) to an independent generator seed.
func derive(seed int64, stream, i int) int64 {
	return seed*0x9E3779B1 + int64(stream)*1_000_003 + int64(i)
}

// valueFor mirrors the payload serving.RunKV and serving.RunLRU write for
// key at op i, so the Go models predict every returned value.
func valueFor(key uint32, i int64) int64 {
	return int64(uint64(key)*2862933555777941757 + uint64(i))
}

func mix(sum, v uint64) uint64 { return (sum ^ v) * 0x100000001b3 }

// The structure variants every workload builds.
var (
	kvAoS   = serving.KVConfig{Layout: serving.KVAoS, Placement: serving.KVMalloc, Slots: kvSlots}
	kvSplit = serving.KVConfig{Layout: serving.KVSplit, Placement: serving.KVColored, Slots: kvSlots}
	lruCfg  = serving.LRUConfig{Capacity: lruCap, IndexSlots: lruIdx, Placement: serving.LRUMalloc}
)

func kvWork(seed, ops int64) serving.KVWorkload {
	return serving.KVWorkload{Seed: seed, S: raceZipfS, Keys: kvKeys, Ops: ops, PutEvery: kvPutEvery}
}

func lruWork(seed, ops int64) serving.LRUWorkload {
	return serving.LRUWorkload{Seed: seed, S: raceZipfS, Keys: lruKeys, Ops: ops}
}

func pqWork(seed, ops int64) serving.PQWorkload {
	return serving.PQWorkload{Seed: seed, S: raceZipfS, Fill: pqFill, Ops: ops}
}

// newWarmKV builds a KV store on m holding every resident key.
func newWarmKV(m *machine.Machine, cfg serving.KVConfig) (*serving.KV, error) {
	kv, err := serving.NewKV(m, cfg)
	if err != nil {
		return nil, err
	}
	return kv, serving.WarmKV(kv, kvKeys)
}

// newWarmLRU builds the co-located LRU on m and drives it to steady
// state with warm (two capacities of ops, as ccbench does).
func newWarmLRU(m *machine.Machine, warm serving.LRUWorkload) (*serving.LRU, serving.WorkloadStats, error) {
	c, err := serving.NewLRU(m, lruCfg)
	if err != nil {
		return nil, serving.WorkloadStats{}, err
	}
	st, err := serving.RunLRU(c, warm)
	return c, st, err
}

// newFilledPQ builds the 4-ary heap on m and fills it per w.
func newFilledPQ(m *machine.Machine, w serving.PQWorkload) (*serving.PQueue, error) {
	q, err := serving.NewPQueue(m, serving.PQConfig{Arity: pqArity, Cap: pqFill + 1})
	if err != nil {
		return nil, err
	}
	return q, serving.FillPQ(q, w)
}

// raceKV is one KV layout variant on its own machine.
type raceKV struct {
	name string
	m    *machine.Machine
	kv   *serving.KV
}

// raceSet is the layout-race state: every structure warmed, observed,
// and paired with the plain Go model its outputs are checked against.
type raceSet struct {
	kvs      []raceKV
	kvModel  map[uint32]int64
	lruM     *machine.Machine
	lru      *serving.LRU
	lruModel *lruModel
	pqM      *machine.Machine
	pq       *serving.PQueue
	pqModel  *priHeap
	cycles   map[string]int64 // simulated cycles over the first cycleRounds rounds
	ops      map[string]int64
}

// newRaceSet builds and warms every structure, then attaches a
// telemetry collector with regions and resets counters — exactly the
// sequence ccbench's serving jobs run before their measured phase.
func newRaceSet(seed int64) (*raceSet, error) {
	rs := &raceSet{
		kvModel: map[uint32]int64{},
		cycles:  map[string]int64{},
		ops:     map[string]int64{},
	}
	for _, v := range []struct {
		name string
		cfg  serving.KVConfig
	}{{"aos-malloc", kvAoS}, {"split-colored", kvSplit}} {
		m := machine.NewScaled(raceScale)
		kv, err := newWarmKV(m, v.cfg)
		if err != nil {
			return nil, fmt.Errorf("kv %s: %w", v.name, err)
		}
		col := telemetry.Attach(m.Cache)
		kv.RegisterRegions(col.Regions(), "kv")
		col.Reset()
		m.ResetStats()
		rs.kvs = append(rs.kvs, raceKV{v.name, m, kv})
	}
	for k := uint32(1); k <= kvKeys; k++ {
		if serving.PresentKey(k) {
			rs.kvModel[k] = valueFor(k, 0)
		}
	}

	rs.lruM = machine.NewScaled(raceScale)
	warm := lruWork(derive(seed, 2, 0), 2*lruCap)
	lru, st, err := newWarmLRU(rs.lruM, warm)
	if err != nil {
		return nil, fmt.Errorf("lru: %w", err)
	}
	rs.lru, rs.lruModel = lru, newLRUModel(lruCap)
	if want := rs.lruModel.run(warm); want != st {
		return nil, fmt.Errorf("lru warm: stats %+v, model %+v", st, want)
	}
	col := telemetry.Attach(rs.lruM.Cache)
	lru.RegisterRegions(col.Regions(), "lru")
	col.Reset()
	rs.lruM.ResetStats()

	rs.pqM = machine.NewScaled(raceScale)
	fill := pqWork(derive(seed, 3, 0), 0)
	pq, err := newFilledPQ(rs.pqM, fill)
	if err != nil {
		return nil, fmt.Errorf("pq: %w", err)
	}
	rs.pq, rs.pqModel = pq, &priHeap{}
	rng := rand.New(rand.NewSource(fill.Seed)) // FillPQ's priority draw
	for i := int64(0); i < pqFill; i++ {
		heap.Push(rs.pqModel, rng.Int63n(1<<30))
	}
	col = telemetry.Attach(rs.pqM.Cache)
	pq.RegisterRegions(col.Regions(), "pq")
	col.Reset()
	rs.pqM.ResetStats()
	return rs, nil
}

// l1Accesses sums the simulated L1 demand accesses of the set's
// machines.
func (rs *raceSet) l1Accesses() int64 {
	n := rs.lruM.Stats().Levels[0].Accesses + rs.pqM.Stats().Levels[0].Accesses
	for _, v := range rs.kvs {
		n += v.m.Stats().Levels[0].Accesses
	}
	return n
}

// roundResult is what one round measured, before the output checks.
type roundResult struct {
	wall     time.Duration
	accesses int64
	kvStats  []serving.WorkloadStats
	lruStats serving.WorkloadStats
	pqPris   []int64
	mcRes    mc.KVResult
	mcSeed   int64
	errs     []string
}

// round runs one fixed chunk of every structure's op stream. Only the
// structure calls are timed; the model checks run afterwards.
func (rs *raceSet) round(b *harness, seed int64, r int, traced bool) roundResult {
	var res roundResult
	req := int64(r + 1)
	record := func(name string, parent int64, t0 time.Time) time.Time {
		t1 := time.Now()
		if traced {
			b.spans.add(name, parent, req, t0, t1)
		}
		return t1
	}
	a0 := rs.l1Accesses()
	start := time.Now()
	var root int64
	if traced {
		root = b.spans.reserve("layout-race.round", 0, req, start)
	}
	t := start

	kvw := kvWork(derive(seed, 1, r), roundOps)
	for _, v := range rs.kvs {
		c0 := v.m.Now()
		st, err := serving.RunKV(v.kv, kvw)
		if err != nil {
			res.errs = append(res.errs, fmt.Sprintf("kv %s round %d: %v", v.name, r, err))
		}
		if r < cycleRounds {
			rs.cycles["kv."+v.name] += v.m.Now() - c0
			rs.ops["kv."+v.name] += st.Ops
		}
		res.kvStats = append(res.kvStats, st)
		t = record("serving.kv."+v.name, root, t)
	}

	lw := lruWork(derive(seed, 2, r+1), roundOps)
	c0 := rs.lruM.Now()
	st, err := serving.RunLRU(rs.lru, lw)
	if err != nil {
		res.errs = append(res.errs, fmt.Sprintf("lru round %d: %v", r, err))
	}
	if r < cycleRounds {
		rs.cycles["lru"] += rs.lruM.Now() - c0
		rs.ops["lru"] += st.Ops
	}
	res.lruStats = st
	t = record("serving.lru", root, t)

	// The hold model of serving.RunPQ, driven op by op so each popped
	// priority can be checked against the model heap.
	z, err := serving.NewZipf(derive(seed, 3, r+1), raceZipfS, pqDelaySpan)
	if err != nil {
		res.errs = append(res.errs, fmt.Sprintf("pq zipf: %v", err))
		return res
	}
	c0 = rs.pqM.Now()
	delays := make([]int64, 0, roundOps)
	res.pqPris = make([]int64, 0, roundOps)
	for i := 0; i < roundOps; i++ {
		pri, pay, ok := rs.pq.Pop()
		if !ok {
			res.errs = append(res.errs, fmt.Sprintf("pq round %d: empty queue", r))
			break
		}
		d := int64(z.Next())
		if err := rs.pq.Push(pri+d, pay+1); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("pq round %d: %v", r, err))
			break
		}
		res.pqPris = append(res.pqPris, pri)
		delays = append(delays, d)
	}
	if r < cycleRounds {
		rs.cycles["pq"] += rs.pqM.Now() - c0
		rs.ops["pq"] += int64(len(res.pqPris))
	}
	t = record("serving.pq", root, t)

	res.accesses = rs.l1Accesses() - a0
	tp := machine.NewTopology(machine.DefaultTopologyConfig(mcCores))
	res.mcSeed = derive(seed, 4, r)
	res.mcRes = mc.KV(tp, mc.KVConfig{
		Slots: mcSlots, Ops: mcOpsPerCore, KeyRange: mcKeyRange,
		StatsStride: mcStride, Seed: res.mcSeed,
	})
	for i := 0; i < tp.Cores(); i++ {
		res.accesses += tp.PrivateCache(i).Stats().Levels[0].Accesses
	}
	if r < cycleRounds {
		rs.cycles["mc"] += res.mcRes.Makespan
		rs.ops["mc"] += mcCores * mcOpsPerCore
	}
	end := record("mc.kv", root, t)
	res.wall = end.Sub(start)
	b.spans.finish(root, end)

	// Model checks, outside the timed window.
	wantKV := rs.kvModelRun(kvw)
	for i, v := range rs.kvs {
		if res.kvStats[i] != wantKV {
			res.errs = append(res.errs, fmt.Sprintf("kv %s round %d: stats %+v, model %+v", v.name, r, res.kvStats[i], wantKV))
		}
		if err := v.kv.CheckInvariants(); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("kv %s round %d: %v", v.name, r, err))
		}
	}
	if want := rs.lruModel.run(lw); res.lruStats != want {
		res.errs = append(res.errs, fmt.Sprintf("lru round %d: stats %+v, model %+v", r, res.lruStats, want))
	}
	if err := rs.lru.CheckInvariants(); err != nil {
		res.errs = append(res.errs, fmt.Sprintf("lru round %d: %v", r, err))
	}
	for i, pri := range res.pqPris {
		want := heap.Pop(rs.pqModel).(int64)
		if pri != want {
			res.errs = append(res.errs, fmt.Sprintf("pq round %d op %d: popped %d, model %d", r, i, pri, want))
			break
		}
		heap.Push(rs.pqModel, pri+delays[i])
	}
	if err := rs.pq.CheckInvariants(); err != nil {
		res.errs = append(res.errs, fmt.Sprintf("pq round %d: %v", r, err))
	}
	if err := checkMC(res.mcRes, res.mcSeed, mcOpsPerCore); err != nil {
		res.errs = append(res.errs, fmt.Sprintf("mc round %d: %v", r, err))
	}
	return res
}

// kvModelRun replays w's op stream (serving.RunKV's) against the Go
// map and returns the stats the store must report.
func (rs *raceSet) kvModelRun(w serving.KVWorkload) serving.WorkloadStats {
	z, err := serving.NewZipf(w.Seed, w.S, w.Keys)
	if err != nil {
		return serving.WorkloadStats{}
	}
	var st serving.WorkloadStats
	for i := int64(0); i < w.Ops; i++ {
		k := z.Next()
		st.Ops++
		if w.PutEvery > 0 && i%w.PutEvery == w.PutEvery-1 {
			if !serving.PresentKey(k) {
				k--
			}
			rs.kvModel[k] = valueFor(k, i)
			st.Puts++
			continue
		}
		if v, ok := rs.kvModel[k]; ok {
			st.Hits++
			st.Checksum = mix(st.Checksum, uint64(v))
		} else {
			st.Misses++
		}
	}
	return st
}

// lruModel is an exact recency-order model of serving.LRU.
type lruModel struct {
	cap   int
	order *list.List // front is most recent; values are keys
	where map[uint32]*list.Element
	vals  map[uint32]int64
}

func newLRUModel(cap int) *lruModel {
	return &lruModel{cap: cap, order: list.New(), where: map[uint32]*list.Element{}, vals: map[uint32]int64{}}
}

// run replays serving.RunLRU's cache-aside stream.
func (m *lruModel) run(w serving.LRUWorkload) serving.WorkloadStats {
	z, err := serving.NewZipf(w.Seed, w.S, w.Keys)
	if err != nil {
		return serving.WorkloadStats{}
	}
	var st serving.WorkloadStats
	for i := int64(0); i < w.Ops; i++ {
		k := z.Next()
		st.Ops++
		if e, ok := m.where[k]; ok {
			m.order.MoveToFront(e)
			st.Hits++
			st.Checksum = mix(st.Checksum, uint64(m.vals[k]))
			continue
		}
		st.Misses++
		if m.order.Len() >= m.cap {
			victim := m.order.Remove(m.order.Back()).(uint32)
			delete(m.where, victim)
			delete(m.vals, victim)
		}
		m.where[k] = m.order.PushFront(k)
		m.vals[k] = valueFor(k, i)
		st.Puts++
	}
	return st
}

// priHeap is the priority-queue model: a binary min-heap of
// priorities. Ties between equal priorities may pop different
// payloads from the d-ary heap, but never a different priority.
type priHeap []int64

func (h priHeap) Len() int           { return len(h) }
func (h priHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h priHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *priHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *priHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// checkMC replays each core's uniform key stream against a Go set:
// a core misses exactly once per distinct key, and hits otherwise.
func checkMC(res mc.KVResult, seed int64, ops int) error {
	if len(res.Hits) != mcCores || len(res.Misses) != mcCores {
		return fmt.Errorf("%d/%d per-core counters, want %d", len(res.Hits), len(res.Misses), mcCores)
	}
	for i := 0; i < mcCores; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		seen := map[int]bool{}
		for j := 0; j < ops; j++ {
			seen[1+rng.Intn(mcKeyRange)] = true
		}
		wantMiss := int64(len(seen))
		if res.Hits[i] != int64(ops)-wantMiss || res.Misses[i] != wantMiss {
			return fmt.Errorf("core %d: %d hits %d misses, model %d/%d",
				i, res.Hits[i], res.Misses[i], int64(ops)-wantMiss, wantMiss)
		}
	}
	return nil
}

// runRace is the layout-race workload: set up (timed, median of
// raceSetups builds), then rounds until the measured window closes.
// A traced run times the first half untraced and the second half
// with spans, and reports the difference as tracing overhead.
func runRace(b *harness) error {
	var setups []float64
	var rs *raceSet
	for i := 0; i < raceSetups; i++ {
		// Every build starts from a collected heap, so the builds time
		// alike and the discarded ones do not raise the peak RSS.
		rs = nil
		runtime.GC()
		t0 := time.Now()
		s, err := newRaceSet(b.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rs = s
	}

	var walls, rates, tracedWalls []float64
	deadline := time.Now().Add(b.seconds)
	half := time.Now().Add(b.seconds / 2)
	for r := 0; r < cycleRounds || time.Now().Before(deadline); r++ {
		traced := b.traced && time.Now().After(half)
		res := rs.round(b, b.seed, r, traced)
		b.attempted += 5 // kv aos, kv split, lru, pq, mc phases
		for _, e := range res.errs {
			b.fail("%s", e)
		}
		if traced {
			tracedWalls = append(tracedWalls, ms(res.wall))
			continue
		}
		walls = append(walls, ms(res.wall))
		rates = append(rates, float64(res.accesses)/res.wall.Seconds())
	}

	b.set("setup_s", median(setups))
	b.set("peak_rss_mb", selfPeakRSSMB())
	b.set("rate_per_s", median(rates))
	b.set("p50_ms", median(walls))
	b.set("tail_ms", quantile(walls, raceTailQ))
	b.set("kv_cycles_per_op", float64(rs.cycles["kv.split-colored"])/float64(rs.ops["kv.split-colored"]))
	b.set("lru_cycles_per_op", float64(rs.cycles["lru"])/float64(rs.ops["lru"]))
	b.set("pq_cycles_per_op", float64(rs.cycles["pq"])/float64(rs.ops["pq"]))
	b.set("mc_cycles_per_op", float64(rs.cycles["mc"])/float64(rs.ops["mc"]))
	if b.traced {
		b.set("tracing.overhead_ms", median(tracedWalls)-median(walls))
	}
	return nil
}

// raceTailQ is the tail percentile of round times: a 20 s window holds
// about 150 rounds, so p90 keeps ten or more rounds beyond it.
const raceTailQ = 0.90
