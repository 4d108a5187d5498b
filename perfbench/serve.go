package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/obs/receipt"
	"coma/internal/obs/txnview"
	"coma/internal/server"
	"coma/internal/server/client"
	"coma/internal/stats"
)

// serve-mixed: an in-process comad (receipts on, one simulation worker)
// driven over loopback HTTP by closed-loop clients that submit with
// wait=1. Each client repeats a fixed pattern of coldEvery submissions:
// coldEvery-1 cache hits on a hot set warmed during set-up, then one
// cold job with a fresh seed. A fixed pattern keeps the hit/cold mix
// exact, so throughput does not vary with a random mix.
const (
	serveClients = 2
	coldEvery    = 20 // 95% hits
	hotJobs      = 4
	serveSetups  = 3 // daemon start + warm-up repeats timed for setup_s
	goldenColds  = 16
	revision     = "perfbench"
)

// Cold and hot jobs draw seeds from disjoint streams of the workload
// seed.
const (
	hotStream  = 1 << 20
	coldStream = 1 << 40
)

// waterJob is ECP Water on 16 nodes with recovery points at 400/s, a
// transient failure and a later permanent one, both early enough to
// land inside the run (about 130k cycles), so every job rolls back and
// reconfigures. MaxCycles, 40 times the run length, turns a simulation
// that never finishes into a failed job instead of a hung benchmark.
func waterJob(seed uint64) server.JobSpec {
	transient := int(seed % 16)
	permanent := (transient + 1 + int(seed>>8%15)) % 16
	return server.JobSpec{App: "water", Nodes: 16, Protocol: "ecp", Scale: 0.005, CheckpointHz: 400,
		Seed: seed, MaxCycles: 5_000_000, Failures: []config.FailureEvent{
			{At: 20_000, Node: transient},
			{At: 50_000, Node: permanent, Permanent: true},
		}}
}

func hotJob(seed uint64, i int) server.JobSpec { return waterJob(splitmix(seed, hotStream+uint64(i))) }
func coldJob(seed uint64, k int) server.JobSpec {
	return waterJob(splitmix(seed, coldStream+uint64(k)))
}

func identityOf(spec server.JobSpec) config.RunIdentity {
	id, err := spec.Identity("")
	if err != nil {
		panic(err) // waterJob specs are valid by construction
	}
	return id
}

var serveMixed = benchWorkload{
	name: "serve-mixed",
	goldenIDs: func(seed uint64) []config.RunIdentity {
		var ids []config.RunIdentity
		for i := range hotJobs {
			ids = append(ids, identityOf(hotJob(seed, i)))
		}
		for k := range goldenColds {
			ids = append(ids, identityOf(coldJob(seed, k)))
		}
		return ids
	},
	run: runServe,
}

// daemon is one in-process comad listening on loopback.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	c      *client.Client
	hot    [][]byte // canonical payloads of the hot set, from the warm-up misses
}

// startDaemon boots comad, waits until it reports healthy and warms
// the hot set, counting each warm-up job's golden check in t.
func startDaemon(ctx context.Context, seed uint64, g golden, t *tally) (*daemon, error) {
	srv, err := server.New(server.Options{Workers: 1, Revision: revision})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.c = client.New("http://" + ln.Addr().String())
	for {
		if h, err := d.c.Health(ctx); err == nil && h.Status == "ok" {
			break
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, fmt.Errorf("comad never became healthy: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	for i := range hotJobs {
		spec := hotJob(seed, i)
		st, err := d.c.Submit(ctx, spec, true)
		if err == nil {
			err = checkDone(st)
		}
		var run *stats.Run
		if err == nil {
			run, err = receipt.ParseResult(st.Result)
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warming hot job %d: %w", i, err)
		}
		t.record(fmt.Sprintf("warming hot job %d", i), g.check(identityOf(spec), statsOf(run)))
		d.hot = append(d.hot, st.Result)
	}
	return d, nil
}

// stop drains the daemon, shuts its listener and waits for it to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		logf("draining comad: %v", err)
	}
	if err := d.hs.Shutdown(ctx); err != nil {
		logf("shutting comad down: %v", err)
	}
	<-d.served
}

func checkDone(st server.JobStatus) error {
	if st.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

// checkCold fails a cold job that did not roll back (its failures never
// landed, so recovery went untested) or whose receipt is not an ok,
// attested receipt of this run.
func checkCold(run *stats.Run, rc receipt.Receipt, id config.RunIdentity, payload []byte) error {
	if run.Ckpt.Recoveries < 1 {
		return errors.New("cold job finished without a rollback")
	}
	if rc.Invariants == nil || rc.Invariants.Verdict != receipt.VerdictOK {
		return fmt.Errorf("receipt verdict %s", rc.VerdictLabel())
	}
	if rc.RunHash != id.Hash() {
		return errors.New("receipt names another run")
	}
	return rc.Attest(receipt.Artifacts{Result: payload}, nil)
}

// serveClient is one closed-loop client's record of a window.
type serveClient struct {
	tally
	spans      *spanLog // nil: untraced
	hitMS      []float64
	missS      []float64
	minstr     []float64 // per cold job: budget instructions per host second of its run
	queueMS    []float64
	runMS      []float64
	overMS     []float64 // client latency minus queue and run
	colds      []coldRec
	coldTried  int
	receiptsOK int // cold jobs whose checks all passed
}

// serveState is what the clients of every window of one invocation
// share.
type serveState struct {
	d         *daemon
	seed      uint64
	g         golden
	nextCold  atomic.Int64  // cold jobs submitted: the next cold job's index
	completed atomic.Int64  // cold jobs completed
	rssMB     atomic.Uint64 // math.Float64bits of the peak RSS when rssColds completed
}

// rssColds is the completed cold job after which serve-mixed reads its
// peak RSS.
// comad keeps every job's trace in memory, so the peak grows with the
// jobs served; reading it after a fixed number of jobs keeps a faster
// simulator, which serves more jobs in the window, from reading as a
// memory regression.
const rssColds = 24

// window runs the clients until the window closes; each finishes the
// request it has in flight. It returns their records and its length.
func (ss *serveState) window(ctx context.Context, length time.Duration, traced bool, origin time.Time) ([]*serveClient, float64) {
	clients := make([]*serveClient, serveClients)
	deadline := time.Now().Add(length)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range clients {
		sc := &serveClient{}
		if traced {
			sc.spans = newSpanLog(origin)
		}
		clients[ci] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(ss.seed, uint64(ci)))
			for j := 0; time.Now().Before(deadline); j++ {
				trace := uint64(ci)<<32 | uint64(j)
				if j%coldEvery == coldEvery-1 {
					k := int(ss.nextCold.Add(1) - 1)
					sc.cold(ctx, ss, coldJob(ss.seed, k), trace)
				} else {
					i := rng.IntN(hotJobs)
					sc.hit(ctx, ss.d, hotJob(ss.seed, i), ss.d.hot[i], trace)
				}
			}
		}()
	}
	wg.Wait()
	return clients, time.Since(start).Seconds()
}

// hit submits one hot job. Every answered request is a latency sample;
// a wrong answer is also a failure.
func (sc *serveClient) hit(ctx context.Context, d *daemon, spec server.JobSpec, want []byte, trace uint64) {
	t0 := time.Now()
	st, err := d.c.Submit(ctx, spec, true)
	t1 := time.Now()
	sc.spans.add(trace, 0, "client.submit", t0, t1)
	if err == nil {
		sc.hitMS = append(sc.hitMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		err = checkHit(st.Result, st.State == server.StateDone && st.Cache == "hit", want)
	}
	sc.record("hit", err)
}

// cold submits one cold job and checks its result and receipt. A job
// that completed is a latency sample even when a check fails.
func (sc *serveClient) cold(ctx context.Context, ss *serveState, spec server.JobSpec, trace uint64) {
	sc.coldTried++
	err := sc.coldJob(ctx, ss, spec, trace)
	sc.record(fmt.Sprintf("cold job (water seed %d)", spec.Seed), err)
}

func (sc *serveClient) coldJob(ctx context.Context, ss *serveState, spec server.JobSpec, trace uint64) error {
	id := identityOf(spec)
	t0 := time.Now()
	st, err := ss.d.c.Submit(ctx, spec, true)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if err := checkDone(st); err != nil {
		return err
	}
	lat := t1.Sub(t0)
	root := sc.spans.add(trace, 0, "client.submit", t0, t1)
	queue := time.Duration(st.QueueMS * 1e6)
	run := time.Duration(st.RunMS * 1e6)
	sc.spans.add(trace, root, "server.queue", t0, t0.Add(queue))
	sc.spans.add(trace, root, "server.run", t0.Add(queue), t0.Add(queue+run))
	sc.missS = append(sc.missS, lat.Seconds())
	sc.minstr = append(sc.minstr, float64(id.Instructions)/(st.RunMS/1e3)/1e6)
	sc.queueMS = append(sc.queueMS, st.QueueMS)
	sc.runMS = append(sc.runMS, st.RunMS)
	sc.overMS = append(sc.overMS, float64(lat.Nanoseconds())/1e6-st.QueueMS-st.RunMS)

	r, err := receipt.ParseResult(st.Result)
	if err != nil {
		return err
	}
	goldenErr := ss.g.check(id, statsOf(r))
	served := id
	served.Revision = revision
	rcpt, err := ss.d.c.Receipt(ctx, st.ID)
	if err != nil {
		return err
	}
	rc, err := receipt.Parse(rcpt)
	if err != nil {
		return err
	}
	t2 := time.Now()
	sc.spans.add(trace, 0, "client.receipt", t1, t2)
	sc.colds = append(sc.colds, coldRec{id: served, jobID: st.ID, payload: st.Result, receipt: rc, run: r})
	if ss.completed.Add(1) == rssColds {
		ss.rssMB.Store(math.Float64bits(maxRSSMB()))
	}
	coldErr := checkCold(r, rc, served, st.Result)
	sc.spans.add(trace, 0, "receipt.attest", t2, time.Now())
	if coldErr == nil {
		sc.receiptsOK++
	}
	return errors.Join(goldenErr, coldErr)
}

// coldRec is one completed cold job.
type coldRec struct {
	id      config.RunIdentity // as the daemon identified it
	jobID   string
	payload []byte
	receipt receipt.Receipt
	run     *stats.Run
}

// replayReceipts re-derives the receipts of up to n cold jobs from
// their served traces, as an auditor would, timing the two obs layers
// involved: receipt.Build (which must reproduce the served receipt) and
// the txnview invariant replay. It runs after the traced window so the
// replay does not compete with the daemon for the CPU.
func replayReceipts(ctx context.Context, d *daemon, colds []coldRec, n int, t *tally) (buildMS, checkMS []float64) {
	for _, c := range colds[:min(n, len(colds))] {
		err := func() error {
			trc, err := d.c.Trace(ctx, c.jobID)
			if err != nil {
				return err
			}
			if err := c.receipt.Attest(receipt.Artifacts{Trace: trc}, nil); err != nil {
				return err
			}
			events, err := obs.ReadJSONL(bytes.NewReader(trc))
			if err != nil {
				return err
			}
			t0 := time.Now()
			rebuilt, _, err := receipt.Build(c.id, c.payload, events, receipt.ProducerLocal)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if !bytes.Equal(rebuilt.CanonicalJSON(), c.receipt.CanonicalJSON()) {
				return errors.New("receipt rebuilt from the served trace differs from the served receipt")
			}
			ok := txnview.Check(events).OK()
			buildMS = append(buildMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
			checkMS = append(checkMS, float64(time.Since(t1).Nanoseconds())/1e6)
			if !ok {
				return errors.New("txnview check of the served trace failed")
			}
			return nil
		}()
		t.record("receipt replay of job "+c.jobID[:12], err)
	}
	return buildMS, checkMS
}

// merged pools the clients' records.
func merged(clients []*serveClient) *serveClient {
	m := &serveClient{}
	for _, c := range clients {
		m.attempted += c.attempted
		m.failed += c.failed
		if c.spans != nil {
			if m.spans == nil {
				m.spans = &spanLog{}
			}
			m.spans.spans = append(m.spans.spans, c.spans.spans...)
		}
		m.hitMS = append(m.hitMS, c.hitMS...)
		m.missS = append(m.missS, c.missS...)
		m.minstr = append(m.minstr, c.minstr...)
		m.queueMS = append(m.queueMS, c.queueMS...)
		m.runMS = append(m.runMS, c.runMS...)
		m.overMS = append(m.overMS, c.overMS...)
		m.colds = append(m.colds, c.colds...)
		m.coldTried += c.coldTried
		m.receiptsOK += c.receiptsOK
	}
	return m
}

// jobs counts the answered requests: hits and completed cold jobs.
func (sc *serveClient) jobs() int { return len(sc.hitMS) + len(sc.missS) }

func runServe(o options) (*report, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	rep := &report{}

	setups := serveSetups
	if o.trace {
		setups = 1
	}
	var setup []float64
	var d *daemon
	for i := range setups {
		t0 := time.Now()
		if d, err = startDaemon(ctx, o.seed, g, &rep.tally); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if i < setups-1 {
			d.stop()
		}
	}
	defer d.stop()

	ss := &serveState{d: d, seed: o.seed, g: g}
	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		u0 := sample()
		clients, elapsed := ss.window(ctx, window, false, time.Now())
		use := sample().since(u0)
		m := merged(clients)
		rep.attempted += m.attempted
		rep.failed += m.failed
		if m.jobs() == 0 || len(m.colds) == 0 {
			return nil, errors.New("no job succeeded")
		}
		jobs := float64(m.jobs())
		rep.add("setup_s", median(setup), "s")
		rep.add("sim_minstr_per_s", median(m.minstr), "Minstr/s")
		rep.add("cpu_s_per_run", use.cpuS/jobs, "s")
		rep.add("alloc_mb_per_run", use.allocMB/jobs, "MB")
		rss := math.Float64frombits(ss.rssMB.Load())
		if rss == 0 {
			rss = maxRSSMB()
			rep.note("fewer than %d cold jobs completed: max_rss_mb is the peak of the whole window", rssColds)
		}
		rep.add("max_rss_mb", rss, "MB")
		rep.add("jobs_per_s", jobs/elapsed, "1/s")
		rep.add("hit_ms_p50", median(m.hitMS), "ms")
		rep.add("miss_s_p50", median(m.missS), "s")
		rep.note("%d jobs in %.2f s: %d hits (hit samples), %d cold jobs (miss samples)", m.jobs(), elapsed, len(m.hitMS), len(m.missS))
		noteHitP99(rep, m.hitMS)
		return rep, nil
	}

	plainClients, plainS := ss.window(ctx, window/2, false, time.Now())
	plain := merged(plainClients)
	origin := time.Now()
	var traced *serveClient
	var tracedS float64
	var use delta
	prof, err := profiled(outPath(o, "serve-mixed", "cpu.pprof"), func() {
		u0 := sample()
		var clients []*serveClient
		clients, tracedS = ss.window(ctx, window/2, true, origin)
		use = sample().since(u0)
		traced = merged(clients)
	})
	if err != nil {
		return nil, err
	}
	rep.attempted += plain.attempted + traced.attempted
	rep.failed += plain.failed + traced.failed
	if plain.jobs() == 0 || len(traced.colds) == 0 {
		return nil, errors.New("no cold job succeeded")
	}

	// Profiling and spans must not change what the daemon simulates:
	// rerun traced cold jobs in-process, untraced, and compare payloads.
	for _, c := range traced.colds[:min(2, len(traced.colds))] {
		r, err := simulate(c.id)
		var payload []byte
		if err == nil {
			payload, err = server.MarshalResult(r)
		}
		if err == nil && !bytes.Equal(payload, c.payload) {
			err = errors.New("in-process rerun differs from the daemon's result")
		}
		rep.record("untraced rerun of job "+c.jobID[:12], err)
	}
	first := traced.colds[0].id
	probes, err := runProbes(first)
	if err != nil {
		return nil, err
	}
	in := layerInputs{prof: prof, probes: probes, mallocs: use.mallocs, gcs: use.gcs}
	var events []float64
	for _, c := range traced.colds {
		in.runs = append(in.runs, c.run)
		events = append(events, float64(c.receipt.TraceEvents))
	}
	for _, ms := range traced.runMS {
		in.runNS += ms * 1e6
	}
	for range 5 {
		t0 := time.Now()
		if _, err := server.BuildMachine(first, nil); err != nil {
			return nil, err
		}
		in.buildMS = append(in.buildMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	buildMS, checkMS := replayReceipts(ctx, d, traced.colds, 4, &rep.tally)
	in.traceEventsPerJob = median(events)
	in.receiptBuildMS = median(buildMS)
	in.txnviewCheckMS = median(checkMS)
	in.queueMS = median(traced.queueMS)
	in.runMS = median(traced.runMS)
	in.overheadMS = median(traced.overMS)
	in.hitP99 = noteHitP99(rep, plain.hitMS)
	in.hitRatio = ratio(float64(len(traced.hitMS)), float64(traced.jobs()))
	in.receiptsOK = ratio(float64(traced.receiptsOK), float64(traced.coldTried))
	in.overhead = (float64(plain.jobs())/plainS)/(float64(traced.jobs())/tracedS) - 1
	perLayer(rep, in)
	rep.note("untraced pass %d jobs, traced pass %d jobs (%d cold)", plain.jobs(), traced.jobs(), len(traced.colds))
	noteSelfTimes(rep, traced.spans.spans)
	return rep, writeSpans(outPath(o, "serve-mixed", "spans.jsonl"), traced.spans.spans)
}
