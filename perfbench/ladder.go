package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ccl/internal/apps/serving"
	"ccl/internal/bench"
	"ccl/internal/cache"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/mc"
	"ccl/internal/memsys"
	"ccl/internal/oracle"
	"ccl/internal/sim"
	"ccl/internal/telemetry"
	"ccl/internal/trace"
	"ccl/internal/trees"
)

// The ladder times each layer from outside, through its public entry
// points, on one recorded access stream: arena load → cache.Access →
// typed machine access → observer attached → topology access at 1 and
// 4 cores → workload op → bench job → cclserve request. Each rung is
// also reported relative to the rung below it (ladder.*), so the
// ratios carry across hosts.
const (
	ladderReps    = 5
	mixKVOps      = 3000
	mixLRUOps     = 3000
	mixPQOps      = 1000
	opProbeOps    = 4000
	morphNodes    = 1<<15 - 1
	oracleRecs    = 20000
	topologyRun   = 64 // consecutive records one core issues before the next core's turn
	coherentCores = 4
)

// mixStream is the ladder's input: a serving mix recorded from the
// run's seed, plus what the telemetry rung needs to attribute it.
type mixStream struct {
	tr      trace.Trace
	arena   *memsys.Arena
	regions func(*telemetry.RegionMap)
}

// recordMix drives a split-colored KV, a co-located LRU and a 4-ary
// heap on one machine through a serving.TraceRecorder.
func recordMix(seed int64) (mixStream, error) {
	m := machine.NewScaled(raceScale)
	kv, err := newWarmKV(m, kvSplit)
	if err != nil {
		return mixStream{}, err
	}
	lru, err := serving.NewLRU(m, lruCfg)
	if err != nil {
		return mixStream{}, err
	}
	pw := pqWork(derive(seed, 30, 0), mixPQOps)
	pq, err := newFilledPQ(m, pw)
	if err != nil {
		return mixStream{}, err
	}
	rec := serving.NewTraceRecorder(m)
	kv.UseMem(rec)
	lru.UseMem(rec)
	pq.UseMem(rec)
	if _, err := serving.RunKV(kv, kvWork(derive(seed, 31, 0), mixKVOps)); err != nil {
		return mixStream{}, err
	}
	if _, err := serving.RunLRU(lru, lruWork(derive(seed, 32, 0), mixLRUOps)); err != nil {
		return mixStream{}, err
	}
	if _, err := serving.RunPQ(pq, pw); err != nil {
		return mixStream{}, err
	}
	return mixStream{
		tr:    rec.Trace(),
		arena: m.Arena,
		regions: func(rm *telemetry.RegionMap) {
			kv.RegisterRegions(rm, "kv")
			lru.RegisterRegions(rm, "lru")
			pq.RegisterRegions(rm, "pq")
		},
	}, nil
}

// nsPerAccess runs f ladderReps times and returns the median host
// nanoseconds per record.
func nsPerAccess(n int, f func()) float64 {
	var xs []float64
	for i := 0; i < ladderReps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// allocs returns the heap allocations f makes.
func allocs(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// typedMem is the part of serving.Mem and machine.Machine that the
// memsys and machine rungs call.
type typedMem interface {
	Load32(memsys.Addr) uint32
	Store32(memsys.Addr, uint32)
	LoadInt(memsys.Addr) int64
	StoreInt(memsys.Addr, int64)
}

// replayTyped issues each record through the 4- or 8-byte typed
// accessors of mem; a store writes back the value already in the arena.
func replayTyped(mem typedMem, a *memsys.Arena, recs []trace.Record) {
	for _, r := range recs {
		switch {
		case r.Size == 8 && r.Kind == trace.Store:
			mem.StoreInt(r.Addr, a.LoadInt(r.Addr))
		case r.Size == 8:
			mem.LoadInt(r.Addr)
		case r.Kind == trace.Store:
			mem.Store32(r.Addr, a.Load32(r.Addr))
		default:
			mem.Load32(r.Addr)
		}
	}
}

// runLadder fills the per-layer metrics the workload's traced run did
// not already measure.
func runLadder(b *harness) error {
	t0 := time.Now()
	mix, err := recordMix(b.seed)
	if err != nil {
		return fmt.Errorf("recording the ladder stream: %w", err)
	}
	recs, cfg := mix.tr.Records, mix.tr.Config
	n := len(recs)
	b.spans.add("ladder.record", 0, 0, t0, time.Now())
	rung := func(name string, f func()) float64 {
		t0 := time.Now()
		v := nsPerAccess(n, f)
		b.spans.add("ladder."+name, 0, 0, t0, time.Now())
		b.set(name+".access_ns", v)
		return v
	}

	memNS := rung("memsys", func() { replayTyped(serving.ArenaMem(mix.arena), mix.arena, recs) })
	cacheNS := rung("cache", func() { trace.AccessTrace(cache.New(cfg), recs) })
	machNS := rung("machine", func() {
		replayTyped(&machine.Machine{Arena: mix.arena, Cache: cache.New(cfg)}, mix.arena, recs)
	})
	var conflicts, llMisses int64
	telNS := rung("telemetry", func() {
		h := cache.New(cfg)
		col := telemetry.Attach(h)
		mix.regions(col.Regions())
		trace.AccessTrace(h, recs)
		rep := col.Report()
		ll := len(rep.Levels) - 1
		conflicts, llMisses = rep.Levels[ll].Conflict, rep.Levels[ll].Misses
	})
	var topo [2]float64
	var coh struct{ inval, cohMiss int64 }
	for i, cores := range []int{1, coherentCores} {
		topo[i] = rung(fmt.Sprintf("topology.c%d", cores), func() {
			tp := machine.NewTopology(machine.DefaultTopologyConfig(cores))
			for j, r := range recs {
				tp.Access((j/topologyRun)%cores, r.Addr, r.Size, r.Kind.AccessKind())
			}
			st := tp.Directory().Stats()
			coh.inval, coh.cohMiss = st.CopiesInvalidated, st.CoherenceMisses
		})
	}
	perK := func(v int64) float64 { return 1000 * float64(v) / float64(n) }
	b.set("cache.ll_miss_per_kacc", perK(llMisses))
	b.set("telemetry.ll_conflict_per_kacc", perK(conflicts))
	b.set("coherence.inval_per_kacc", perK(coh.inval))
	b.set("coherence.coh_miss_per_kacc", perK(coh.cohMiss))
	b.set("telemetry.overhead_x", telNS/cacheNS)
	b.set("ladder.cache_over_memsys", cacheNS/memNS)
	b.set("ladder.machine_over_cache", machNS/cacheNS)
	b.set("ladder.telemetry_over_machine", telNS/machNS)
	b.set("ladder.topology_c1_over_machine", topo[0]/machNS)
	b.set("ladder.topology_c4_over_c1", topo[1]/topo[0])

	if err := opRung(b); err != nil {
		return err
	}
	b.set("ladder.op_over_access", b.metrics["serving.kv.op_ns.observed"]/telNS)
	if err := benchRung(b); err != nil {
		return err
	}
	if err := smallRungs(b, mix); err != nil {
		return err
	}
	if _, ok := b.metrics["serve.upload.admit_ms"]; !ok {
		t0 := time.Now()
		if err := probeServe(b); err != nil {
			return fmt.Errorf("cclserve rung: %w", err)
		}
		b.spans.add("ladder.serve", 0, 0, t0, time.Now())
	}
	return nil
}

// opRung times one operation of each serving structure, bare and with
// the telemetry collector attached, and one mc.KV operation.
func opRung(b *harness) error {
	t0 := time.Now()
	defer func() { b.spans.add("ladder.op", 0, 0, t0, time.Now()) }()
	for _, observed := range []bool{false, true} {
		suffix := ".bare"
		if observed {
			suffix = ".observed"
		}
		attach := func(m *machine.Machine, reg func(*telemetry.RegionMap)) {
			if observed {
				col := telemetry.Attach(m.Cache)
				reg(col.Regions())
				col.Reset()
			}
			m.ResetStats()
		}
		timeOps := func(name string, m *machine.Machine, ops int64, run func() error) error {
			a0 := m.Stats().Levels[0].Accesses
			t := time.Now()
			if err := run(); err != nil {
				return fmt.Errorf("%s op rung: %w", name, err)
			}
			b.set("serving."+name+".op_ns"+suffix, float64(time.Since(t).Nanoseconds())/float64(ops))
			b.set("serving."+name+".accesses_per_op", float64(m.Stats().Levels[0].Accesses-a0)/float64(ops))
			return nil
		}

		m := machine.NewScaled(raceScale)
		kv, err := newWarmKV(m, kvSplit)
		if err != nil {
			return err
		}
		attach(m, func(rm *telemetry.RegionMap) { kv.RegisterRegions(rm, "kv") })
		if err := timeOps("kv", m, opProbeOps, func() error {
			_, err := serving.RunKV(kv, kvWork(derive(b.seed, 40, 0), opProbeOps))
			return err
		}); err != nil {
			return err
		}

		m = machine.NewScaled(raceScale)
		lru, _, err := newWarmLRU(m, lruWork(derive(b.seed, 41, 0), 2*lruCap))
		if err != nil {
			return err
		}
		attach(m, func(rm *telemetry.RegionMap) { lru.RegisterRegions(rm, "lru") })
		if err := timeOps("lru", m, opProbeOps, func() error {
			_, err := serving.RunLRU(lru, lruWork(derive(b.seed, 41, 1), opProbeOps))
			return err
		}); err != nil {
			return err
		}

		m = machine.NewScaled(raceScale)
		pw := pqWork(derive(b.seed, 42, 0), opProbeOps)
		pq, err := newFilledPQ(m, pw)
		if err != nil {
			return err
		}
		attach(m, func(rm *telemetry.RegionMap) { pq.RegisterRegions(rm, "pq") })
		if err := timeOps("pq", m, opProbeOps, func() error {
			_, err := serving.RunPQ(pq, pw)
			return err
		}); err != nil {
			return err
		}
	}

	tp := machine.NewTopology(machine.DefaultTopologyConfig(mcCores))
	seed := derive(b.seed, 43, 0)
	t := time.Now()
	res := mc.KV(tp, mc.KVConfig{Slots: mcSlots, Ops: opProbeOps, KeyRange: mcKeyRange, StatsStride: mcStride, Seed: seed})
	b.set("mc.kv.op_ns", float64(time.Since(t).Nanoseconds())/float64(mcCores*opProbeOps))
	b.attempted++
	if err := checkMC(res, seed, opProbeOps); err != nil {
		b.fail("mc op rung: %v", err)
	}
	return nil
}

// benchRung runs every registry experiment's jobs serially in-process,
// timing and counting the allocations of each job's Run, then
// assembles each table.
func benchRung(b *harness) error {
	ctx := context.Background()
	t0 := time.Now()
	var jobsTotal time.Duration
	var njobs int
	for _, sp := range bench.Registry() {
		var spent time.Duration
		var nalloc float64
		var outs []any
		for _, j := range sp.Jobs(false) {
			var out any
			var err error
			var start, end time.Time
			nalloc += allocs(func() {
				start = time.Now()
				out, err = runJob(ctx, j)
				end = time.Now()
			})
			d := end.Sub(start)
			b.spans.add("bench."+j.Name, 0, int64(njobs+1), start, end)
			spent += d
			njobs++
			b.attempted++
			if err != nil {
				b.fail("bench job %s: %v", j.Name, err)
			}
			outs = append(outs, out)
		}
		if tab := sp.Assemble(false, outs); len(tab.Rows) == 0 {
			b.fail("bench %s assembled no rows", sp.ID)
		}
		jobsTotal += spent
		b.set("bench."+sp.ID+".ms", ms(spent))
		b.set("bench."+sp.ID+".allocs", nalloc)
	}
	whole := time.Since(t0)
	b.set("bench.jobs_ms", ms(jobsTotal))
	b.set("bench.pool_ms", ms(whole-jobsTotal))
	b.set("bench.job_mean_ms", ms(jobsTotal)/float64(njobs))
	b.set("ladder.job_over_op", ms(jobsTotal)/float64(njobs)*1e6/b.metrics["serving.kv.op_ns.observed"])
	b.set("ladder.run_over_job", ms(whole)/(ms(jobsTotal)/float64(njobs)))
	return nil
}

// runJob runs one job in a fresh run context, turning a panic into an
// error as the bench pool does.
func runJob(ctx context.Context, j bench.Job) (out any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return j.Run(ctx, sim.New(), false)
}

// smallRungs times ccmorph reorganization, the reference oracle, and
// the trace codec.
func smallRungs(b *harness, mix mixStream) error {
	t0 := time.Now()
	var morphMS, morphAllocs []float64
	for i := 0; i < 3; i++ {
		m := machine.NewScaled(raceScale)
		t, err := trees.Build(m, heap.New(m.Arena), morphNodes, trees.RandomOrder, derive(b.seed, 50, i))
		if err != nil {
			return fmt.Errorf("ccmorph rung: %w", err)
		}
		var d time.Duration
		a := allocs(func() {
			s := time.Now()
			_, err = t.Morph(0.5, nil)
			d = time.Since(s)
		})
		if err != nil {
			return fmt.Errorf("ccmorph rung: %w", err)
		}
		morphMS = append(morphMS, ms(d))
		morphAllocs = append(morphAllocs, a)
	}
	b.set("ccmorph.morph_ms", median(morphMS))
	b.set("ccmorph.morph_allocs", median(morphAllocs))
	b.spans.add("ladder.ccmorph", 0, 0, t0, time.Now())

	t0 = time.Now()
	sw := oracle.SweepTrace(b.seed, 0, oracleRecs)
	var oa float64
	ons := nsPerAccess(len(sw.Records), func() {
		o := oracle.New(sw.Config)
		oa = allocs(func() {
			for _, r := range sw.Records {
				o.Access(r.Addr, r.Size, r.Kind.AccessKind())
			}
		})
	})
	b.set("oracle.access_ns", ons)
	b.set("oracle.allocs", oa)
	b.spans.add("ladder.oracle", 0, 0, t0, time.Now())

	t0 = time.Now()
	data := mix.tr.Encode()
	var dec, rep []float64
	for i := 0; i < ladderReps; i++ {
		s := time.Now()
		tr, err := trace.Decode(data)
		dec = append(dec, ms(time.Since(s)))
		if err != nil {
			return fmt.Errorf("trace rung: %w", err)
		}
		s = time.Now()
		if _, _, err := trace.Replay(tr); err != nil {
			return fmt.Errorf("trace rung: %w", err)
		}
		rep = append(rep, ms(time.Since(s)))
	}
	b.set("trace.decode_ms", median(dec))
	b.set("trace.replay_ms", median(rep))
	b.spans.add("ladder.trace", 0, 0, t0, time.Now())
	return nil
}
