package main

import (
	"bytes"
	"os"
	"runtime/pprof"

	"coma/internal/stats"
)

// layerInputs is what a traced pass measured, in the form perLayer
// reports it.
type layerInputs struct {
	prof     attribution
	probes   probeSet
	runs     []*stats.Run // every simulation of the traced pass
	runNS    float64      // host ns spent running them
	mallocs  float64      // heap allocations over the traced runs
	gcs      float64      // GC cycles over the traced runs
	buildMS  []float64    // machine.New per run
	overhead float64      // traced over untraced run time, minus 1

	// serve-mixed only (zero elsewhere: the layer is not on the path).
	traceEventsPerJob float64
	receiptBuildMS    float64
	txnviewCheckMS    float64
	queueMS, runMS    float64
	overheadMS        float64
	hitP99            float64 // hit latency p99 of the untraced pass (also on the simulation workloads)
	hitRatio          float64
	receiptsOK        float64
}

// perLayer reports every per-layer metric, in BENCHMARK.json's order.
func perLayer(rep *report, in layerInputs) {
	var t stats.Node
	var events, cycles, msgs, flits, cacheAcc, cacheMiss, established, recoveries float64
	for _, r := range in.runs {
		tot := r.Total()
		t.Add(&tot)
		events += float64(r.Events)
		cycles += float64(r.Cycles)
		msgs += float64(r.NetMessages)
		flits += float64(r.NetFlits)
		cacheAcc += float64(r.CacheReads + r.CacheWrites)
		cacheMiss += float64(r.CacheReadMiss + r.CacheWriteMis)
		established += float64(r.Ckpt.Established)
		recoveries += float64(r.Ckpt.Recoveries)
	}
	n := float64(len(in.runs))
	kinstr := float64(t.Instructions) / 1e3
	fills := float64(t.FillsLocal + t.FillsRemote + t.FillsCold)
	amAcc := float64(t.AMAccesses())
	inj := float64(t.TotalInjections())
	frac := in.prof.frac

	rep.add("sim.self_frac", frac("sim"), "ratio")
	rep.add("sim.ns_per_event", ratio(in.runNS, events), "ns")
	rep.add("sim.events_per_kinstr", ratio(events, kinstr), "count")

	rep.add("rt.self_frac", frac("rt"), "ratio")
	rep.add("rt.sched_frac", frac("rt.sched"), "ratio")
	rep.add("rt.stack_frac", frac("rt.stack"), "ratio")
	rep.add("rt.gc_frac", frac("rt.gc"), "ratio")
	rep.add("rt.alloc_frac", frac("rt.alloc"), "ratio")
	rep.add("rt.mallocs_per_kevent", ratio(in.mallocs, events/1e3), "count")
	rep.add("rt.gc_per_run", ratio(in.gcs, n), "count")

	rep.add("mesh.self_frac", frac("mesh"), "ratio")
	rep.add("mesh.msgs_per_kinstr", ratio(msgs, kinstr), "count")
	rep.add("mesh.flits_per_msg", ratio(flits, msgs), "count")
	rep.add("coherence.self_frac", frac("coherence"), "ratio")
	rep.add("coherence.remote_fill_frac", ratio(float64(t.FillsRemote), fills), "ratio")

	rep.add("am.self_frac", frac("am"), "ratio")
	rep.add("am.probe_ns", in.probes.am.ns, "ns")
	rep.add("am.probe_ops", in.probes.am.ops, "count")
	rep.add("am.miss_ratio", ratio(float64(t.AMReadMisses+t.AMWriteMisses), amAcc), "ratio")
	rep.add("am.injections_per_10k_refs", ratio(inj*1e4, float64(t.References())), "count")
	rep.add("am.hops_per_injection", ratio(float64(t.InjectHops), inj), "count")
	rep.add("directory.self_frac", frac("directory"), "ratio")
	rep.add("directory.probe_ns", in.probes.dir.ns, "ns")
	rep.add("directory.probe_ops", in.probes.dir.ops, "count")

	rep.add("workload.self_frac", frac("workload"), "ratio")
	rep.add("workload.next_ns", in.probes.next.ns, "ns")
	rep.add("workload.next_ops", in.probes.next.ops, "count")
	rep.add("cache.self_frac", frac("cache"), "ratio")
	rep.add("cache.probe_ns", in.probes.cache.ns, "ns")
	rep.add("cache.probe_ops", in.probes.cache.ops, "count")
	rep.add("cache.hit_ratio", 1-ratio(cacheMiss, cacheAcc), "ratio")
	rep.add("node.self_frac", frac("node"), "ratio")
	rep.add("config.self_frac", frac("config"), "ratio")

	rep.add("core.self_frac", frac("core"), "ratio")
	rep.add("core.recovery_points", ratio(established, n), "count")
	rep.add("core.ckpt_reuse_ratio", ratio(float64(t.CkptItemsReused), float64(t.CkptItemsReused+t.CkptItemsReplicated)), "ratio")
	rep.add("core.rollbacks", ratio(recoveries, n), "count")

	rep.add("machine.self_frac", frac("machine"), "ratio")
	rep.add("machine.build_ms", median(in.buildMS), "ms")

	rep.add("obs.self_frac", frac("obs"), "ratio")
	rep.add("obs.trace_events_per_job", in.traceEventsPerJob, "count")
	rep.add("obs.receipt_build_ms", in.receiptBuildMS, "ms")
	rep.add("obs.txnview_check_ms", in.txnviewCheckMS, "ms")

	rep.add("server.self_frac", frac("server"), "ratio")
	rep.add("server.queue_ms_p50", in.queueMS, "ms")
	rep.add("server.run_ms_p50", in.runMS, "ms")
	rep.add("server.overhead_ms_p50", in.overheadMS, "ms")
	rep.add("server.hit_ms_p99", in.hitP99, "ms")
	rep.add("server.hit_ratio", in.hitRatio, "ratio")
	rep.add("server.receipts_ok_ratio", in.receiptsOK, "ratio")

	rep.add("other.self_frac", frac("other"), "ratio")
	rep.add("trace.overhead_frac", in.overhead, "ratio")
	rep.note("%.0f simulations in the traced pass, %.0f sim cycles, %.0f CPU-profile ns attributed", n, cycles, in.prof.total)
}

// profiled runs f under the CPU profiler, writes the profile to path
// (for go tool pprof) and attributes its samples to layers.
func profiled(path string, f func()) (attribution, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return attribution{}, err
	}
	f()
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return attribution{}, err
	}
	return attribute(buf.Bytes())
}
