package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"coma/internal/config"
	"coma/internal/server"
	"coma/internal/stats"
	"coma/internal/workload"
)

// The two simulation workloads issue runs one at a time from this
// process. Run i of an invocation simulates identity i mod simIDs, each
// with a seed derived from the workload seed, so every identity runs
// several times in a window and its repeats must agree exactly.
const simIDs = 3

// hitsPerRun is how many times a finished run's result is served back
// from a comad result store, keyed by its identity hash: the path a
// repeated request takes when nothing needs simulating.
const hitsPerRun = 200

// maxSimCycles bounds a simulation run at about 25 times the length of
// the longest one, so a run that never finishes fails instead of hanging
// the benchmark.
const maxSimCycles = 50_000_000

// simSpec defines one simulation workload.
type simSpec struct {
	app      string
	protocol string
	scale    float64
	hz       float64
}

func (s simSpec) identity(seed uint64) config.RunIdentity {
	app, _ := workload.ByName(s.app)
	return config.RunIdentity{
		Arch:         config.KSR1(16),
		Protocol:     s.protocol,
		App:          s.app,
		Instructions: app.Scale(s.scale).Instructions,
		Seed:         seed,
		CheckpointHz: s.hz,
		Oracle:       true,
		MaxCycles:    maxSimCycles,
	}
}

func (s simSpec) ids(seed uint64) []config.RunIdentity {
	ids := make([]config.RunIdentity, simIDs)
	for i := range ids {
		ids[i] = s.identity(splitmix(seed, uint64(i)))
	}
	return ids
}

func simWorkload(name string, s simSpec) benchWorkload {
	return benchWorkload{
		name:      name,
		goldenIDs: s.ids,
		run:       func(o options) (*report, error) { return runSim(name, s, o) },
	}
}

// std-barnes: mostly-read shared data, mostly local fills, few protocol
// messages; host time goes to the processor side (workload, cache, AM).
var stdBarnes = simWorkload("std-barnes", simSpec{app: "barnes", protocol: "standard", scale: 0.1})

// ecp-mp3d: migratory write-heavy data, high AM miss rate, recovery
// points at 400/s; host time goes to coherence, mesh, directory, AM
// injection and the checkpoint phases.
var ecpMp3d = simWorkload("ecp-mp3d", simSpec{app: "mp3d", protocol: "ecp", scale: 0.1, hz: 400})

// simulate builds and runs one identity with nothing attached.
func simulate(id config.RunIdentity) (*stats.Run, error) {
	m, err := server.BuildMachine(id, nil)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// simRun is one measured run.
type simRun struct {
	id     config.RunIdentity
	stats  *stats.Run
	buildS float64 // machine.New
	runS   float64 // Run
	totalS float64 // build + run + check
	use    delta   // host resources over build + run + check
	hitMS  []float64
}

// simLoop runs identities in turn until the window closes, checking each
// result. A run starts only if the last one would still fit.
func simLoop(ids []config.RunIdentity, window time.Duration, g golden, rc repeatCheck, t *tally, spans *spanLog) []simRun {
	store, _ := server.NewStore("") // an in-memory store cannot fail
	var runs []simRun
	start := time.Now()
	var last time.Duration
	for i := 0; i < 2 || time.Since(start)+last <= window; i++ {
		id := ids[i%len(ids)]
		trace := uint64(i + 1)
		u0 := sample()
		t0 := time.Now()
		m, err := server.BuildMachine(id, nil)
		t1 := time.Now()
		var r *stats.Run
		if err == nil {
			r, err = m.Run()
		}
		t2 := time.Now()
		if err == nil {
			err = errors.Join(g.check(id, statsOf(r)), rc.check(id, statsOf(r)))
		}
		t3 := time.Now()
		use := sample().since(u0)
		spans.add(trace, 0, "machine.build", t0, t1)
		spans.add(trace, 0, "machine.run", t1, t2)
		spans.add(trace, 0, "check", t2, t3)
		t.record(fmt.Sprintf("run %d (%s seed %d)", i, id.App, id.Seed), err)
		last = t3.Sub(t0)
		if r == nil {
			continue // no result to time; a result that fails its checks is still timed
		}
		run := simRun{id: id, stats: r, buildS: t1.Sub(t0).Seconds(), runS: t2.Sub(t1).Seconds(),
			totalS: t3.Sub(t0).Seconds(), use: use}
		run.hitMS = serveHits(store, id, r, t)
		runs = append(runs, run)
	}
	return runs
}

// serveHits files a run's result under its identity hash and serves it
// back hitsPerRun times, timing each lookup and checking its bytes.
func serveHits(store *server.Store, id config.RunIdentity, r *stats.Run, t *tally) []float64 {
	payload, err := server.MarshalResult(r)
	if err == nil {
		err = store.Put(id.Hash(), payload)
	}
	if err != nil {
		t.record("storing result", err)
		return nil
	}
	lat := make([]float64, 0, hitsPerRun)
	for range hitsPerRun {
		t0 := time.Now()
		got, ok := store.Get(id.Hash())
		err := checkHit(got, ok, payload)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		t.record("result-store hit", err)
	}
	return lat
}

// checkHit fails a served result that is missing or differs from the
// payload the run produced.
func checkHit(got []byte, ok bool, want []byte) error {
	if !ok {
		return errors.New("result missing from the store")
	}
	if !bytes.Equal(got, want) {
		return errors.New("served payload differs from the computed result")
	}
	return nil
}

func runSim(name string, s simSpec, o options) (*report, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	ids := s.ids(o.seed)
	rep := &report{}

	// Set-up: assemble each identity's machine twice. Users pay
	// machine.New on every run, so the per-run builds count as set-up
	// samples too.
	var setup []float64
	for range 2 {
		for _, id := range ids {
			t0 := time.Now()
			if _, err := server.BuildMachine(id, nil); err != nil {
				return nil, err
			}
			setup = append(setup, time.Since(t0).Seconds())
		}
	}

	rc := repeatCheck{}
	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		runs := simLoop(ids, window, g, rc, &rep.tally, nil)
		if len(runs) == 0 {
			return nil, errors.New("no run succeeded")
		}
		for _, r := range runs {
			setup = append(setup, r.buildS)
		}
		simEndToEnd(rep, runs, median(setup))
		return rep, nil
	}

	plain := simLoop(ids, window/2, g, rc, &rep.tally, nil)
	spans := newSpanLog(time.Now())
	var traced []simRun
	prof, err := profiled(outPath(o, name, "cpu.pprof"), func() { traced = simLoop(ids, window/2, g, rc, &rep.tally, spans) })
	if err != nil {
		return nil, err
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errors.New("no run succeeded")
	}
	probes, err := runProbes(ids[0])
	if err != nil {
		return nil, err
	}
	in := layerInputs{prof: prof, probes: probes}
	for _, r := range traced {
		in.runs = append(in.runs, r.stats)
		in.runNS += r.runS * 1e9
		in.mallocs += r.use.mallocs
		in.gcs += r.use.gcs
		in.buildMS = append(in.buildMS, r.buildS*1e3)
	}
	in.overhead = median(runSeconds(traced))/median(runSeconds(plain)) - 1
	var hits []float64
	for _, r := range plain {
		hits = append(hits, r.hitMS...)
	}
	in.hitP99 = noteHitP99(rep, hits)
	perLayer(rep, in)
	rep.note("%d untraced and %d traced runs; traced/untraced statistics compared per identity", len(plain), len(traced))
	noteSelfTimes(rep, spans.spans)
	return rep, writeSpans(outPath(o, name, "spans.jsonl"), spans.spans)
}

func runSeconds(runs []simRun) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.runS
	}
	return out
}

// simEndToEnd reports the end-to-end metrics of a simulation workload.
// A run is its "job": miss_s_p50 and jobs_per_s time a run from build to
// checked result, and hit_ms_* time serving its result back from the
// store.
func simEndToEnd(rep *report, runs []simRun, setupS float64) {
	var minstr, cpu, alloc, total, hits []float64
	for _, r := range runs {
		minstr = append(minstr, float64(r.id.Instructions)/r.runS/1e6)
		cpu = append(cpu, r.use.cpuS)
		alloc = append(alloc, r.use.allocMB)
		total = append(total, r.totalS)
		hits = append(hits, r.hitMS...)
	}
	rep.add("setup_s", setupS, "s")
	rep.add("sim_minstr_per_s", median(minstr), "Minstr/s")
	rep.add("cpu_s_per_run", median(cpu), "s")
	rep.add("alloc_mb_per_run", median(alloc), "MB")
	rep.add("max_rss_mb", maxRSSMB(), "MB")
	rep.add("jobs_per_s", 1/median(total), "1/s")
	rep.add("hit_ms_p50", median(hits), "ms")
	rep.add("miss_s_p50", median(total), "s")
	rep.note("%d runs (miss samples), %d result-store hits (hit samples)", len(runs), len(hits))
	noteHitP99(rep, hits)
}
