package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"coma/internal/config"
	"coma/internal/obs/receipt"
	"coma/internal/server"
	"coma/internal/stats"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if v, ok := percentile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, ok)
	}
	if v, ok := percentile(xs[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples = %v reported with fewer than 10 beyond", v)
	}
	if v, ok := percentile(xs, 0.5); v != 500 || !ok {
		t.Errorf("p50 = %v, %v; want 500", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func testIdentity() config.RunIdentity {
	return config.RunIdentity{Arch: config.KSR1(16), Protocol: "ecp", App: "water", Instructions: 1000, Seed: 7}
}

func TestGoldenMismatchCountsAsFailure(t *testing.T) {
	id := testIdentity()
	want := simStats{Cycles: 100, Events: 200, Rollbacks: 1}
	g := golden{goldenKey(id): {App: id.App, Seed: id.Seed, Stats: want}}
	var tl tally
	tl.record("matching run", g.check(id, want))
	if tl.failFrac() != 0 {
		t.Fatalf("matching run failed: %+v", tl)
	}
	perturbed := want
	perturbed.Events++
	tl.record("perturbed run", g.check(id, perturbed))
	if tl.failed != 1 || tl.failFrac() != 0.5 {
		t.Errorf("perturbed golden statistic: tally %+v, fail_frac %v; want 1 of 2 failed", tl, tl.failFrac())
	}
	// The daemon stamps its revision into identities; the key ignores it.
	id.Revision = "perfbench"
	if err := g.check(id, perturbed); err == nil {
		t.Error("revision-stamped identity escaped the golden check")
	}
}

func TestRepeatedRunMustAgree(t *testing.T) {
	id := testIdentity()
	rc := repeatCheck{}
	s := simStats{Cycles: 100}
	if err := rc.check(id, s); err != nil {
		t.Fatal(err)
	}
	if err := rc.check(id, s); err != nil {
		t.Errorf("identical repeat failed: %v", err)
	}
	s.Cycles++
	if err := rc.check(id, s); err == nil {
		t.Error("differing repeat passed")
	}
}

func TestHitPayloadMismatchCountsAsFailure(t *testing.T) {
	want := []byte(`{"Cycles":1}`)
	var tl tally
	tl.record("hit", checkHit([]byte(`{"Cycles":1}`), true, want))
	tl.record("hit", checkHit([]byte(`{"Cycles":2}`), true, want))
	tl.record("hit", checkHit(want, false, want))
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("tally %+v; want the differing and the missing payload failed", tl)
	}
}

func TestColdJobWithoutRollbackFails(t *testing.T) {
	id := testIdentity()
	check := func(recoveries int64, verdict receipt.Verdict) error {
		run := &stats.Run{Cycles: 10, Events: 20, Ckpt: stats.Checkpointing{Recoveries: recoveries}}
		payload, err := server.MarshalResult(run)
		if err != nil {
			t.Fatal(err)
		}
		rc := receipt.Receipt{Schema: receipt.Schema, RunHash: id.Hash(), Producer: receipt.ProducerLocal,
			ResultDigest: receipt.Digest(payload), SimCycles: run.Cycles, SimEvents: run.Events,
			Invariants: &receipt.Invariants{Verdict: verdict}}
		return checkCold(run, rc, id, payload)
	}
	if err := check(1, receipt.VerdictOK); err != nil {
		t.Fatalf("rolled-back job with an ok receipt failed: %v", err)
	}
	if err := check(0, receipt.VerdictOK); err == nil {
		t.Error("cold job without a rollback passed")
	}
	if err := check(2, receipt.VerdictViolated); err == nil {
		t.Error("cold job with a violated receipt passed")
	}
}

func TestClassifyFixtureStacks(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"cache", []string{"coma/internal/cache.(*Cache).findSector", "coma/internal/cache.(*Cache).Access", "coma/internal/node.(*Node).Run"}},
		{"workload", []string{"math.archLog", "math.log", "coma/internal/workload.(*App).Next", "coma/internal/node.(*Node).Run"}},
		// Packages that are not layers go to their nearest layer caller.
		{"am", []string{"coma/internal/proto.State.Replaceable", "coma/internal/am.(*AM).DropFrame", "coma/internal/coherence.(*Engine).evict"}},
		{"obs", []string{"coma/internal/obs/txnview.Check", "coma/internal/obs/receipt.Build", "coma/internal/server.(*Server).emitReceipt"}},
		{"server", []string{"coma/internal/server/client.(*Client).Submit", "main.(*serveClient).hit"}},
		{"server", []string{"coma/internal/experiments/runner.(*Pool[...]).Start.func1"}},
		// Runtime library calls belong to the caller.
		{"directory", []string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1_fast64", "coma/internal/directory.(*Directory).Lookup"}},
		{"coherence", []string{"runtime.memmove", "runtime.duffcopy", "coma/internal/coherence.(*Engine).ReadItem"}},
		// Runtime work of its own splits four ways.
		{"rt.stack", []string{"runtime.memmove", "runtime.copystack", "runtime.newstack", "runtime.morestack", "coma/internal/sim.(*Engine).next"}},
		{"rt.alloc", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "coma/internal/mesh.(*Network).Send"}},
		{"rt.gc", []string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject", "coma/internal/mesh.(*Network).Send"}},
		{"rt.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}},
		{"rt.gc", []string{"runtime._GC"}},
		{"rt.sched", []string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend", "runtime.chansend1", "coma/internal/sim.(*Process).park"}},
		{"rt.sched", []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"rt.sched", []string{"runtime.nanotime", "runtime.sysmon", "runtime.mstart1"}},
		{"rt.sched", []string{"runtime._System"}},
		// comad's HTTP front end outside any handler frame.
		{"server", []string{"bufio.(*Reader).Peek", "net/http.(*conn).readRequest", "net/http.(*conn).serve"}},
		{"other", []string{"encoding/json.Marshal", "main.printReport", "main.main", "runtime.main"}},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var spinSink float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := range 10000 {
			spinSink += float64(i) * 1.0001
		}
	}
}

func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, st := range stacks {
		if weights[i] <= 0 {
			t.Errorf("sample %d has weight %v", i, weights[i])
		}
		for _, fn := range st {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if !found {
		t.Errorf("no sample of %d names the spinning function", len(stacks))
	}
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.frac("other"); got < 0.5 {
		t.Errorf("benchmark-only CPU attributed %.2f to other, want most of it", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	origin := time.Unix(0, 0)
	at := func(ms int) time.Time { return origin.Add(time.Duration(ms) * time.Millisecond) }
	l := newSpanLog(origin)
	root := l.add(1, 0, "client.submit", at(0), at(100))
	l.add(1, root, "server.queue", at(0), at(30))
	l.add(1, root, "server.run", at(30), at(90))
	l.add(2, 0, "client.submit", at(200), at(205))
	self := selfNS(l.spans)
	if got, want := self["client.submit"], float64(15*time.Millisecond); got != want {
		t.Errorf("client.submit self = %v ns, want %v", got, want)
	}
	if got, want := self["server.run"], float64(60*time.Millisecond); got != want {
		t.Errorf("server.run self = %v ns, want %v", got, want)
	}
	var nilLog *spanLog
	if nilLog.add(1, 0, "x", at(0), at(1)) != 0 {
		t.Error("a nil span log recorded a span")
	}
}
