package main

import (
	"fmt"
	"time"

	"coma/internal/am"
	"coma/internal/cache"
	"coma/internal/config"
	"coma/internal/directory"
	"coma/internal/proto"
	"coma/internal/workload"
)

// Layer probes time the exported calls of the processor-side layers
// outside the simulator, fed by the workload's own reference stream:
//
//   - workload: App.Next over every processor's generator;
//   - cache: Access for every memory reference, Fill after each miss;
//   - am: the frame lookup and install a cache miss makes in the local
//     attraction memory (HasFrame, FreeWay, VictimPage, DropFrame,
//     AllocFrame, Touch, Slot, Set);
//   - directory: Home, Ensure and Lookup for each cache miss.
//
// Each probe reports host ns per operation and its operation count.

// probeRefsPerNode caps the stream recorded per processor; on the
// baseline host a probe pass then takes under 0.1 s.
const probeRefsPerNode = 1 << 17

// probeRepeats is how many passes each probe makes; the median is kept.
const probeRepeats = 3

type probe struct{ ns, ops float64 }

type probeSet struct {
	next, cache, am, dir probe
}

type memRef struct {
	addr  uint64
	write bool
}

// runProbes replays the reference stream of the run identity id.
func runProbes(id config.RunIdentity) (probeSet, error) {
	app, ok := workload.ByName(id.App)
	if !ok {
		return probeSet{}, fmt.Errorf("probes: unknown app %q", id.App)
	}
	if id.Instructions > 0 && id.Instructions != app.Instructions {
		app = app.Scale(float64(id.Instructions) / float64(app.Instructions))
	}
	arch := id.Arch
	n := arch.Nodes

	var ps probeSet
	var refs [][]memRef
	var nexts []float64
	for r := 0; r < probeRepeats; r++ {
		gens := make([]*workload.App, n)
		for i := range gens {
			gens[i] = app.NewApp(i, n, id.Seed)
		}
		refs = make([][]memRef, n)
		calls := 0
		start := time.Now()
		for i, g := range gens {
			stream := make([]memRef, 0, probeRefsPerNode)
			for len(stream) < probeRefsPerNode {
				ref := g.Next()
				calls++
				if ref.Kind == workload.End {
					break
				}
				if ref.Kind == workload.Read || ref.Kind == workload.Write {
					stream = append(stream, memRef{ref.Addr, ref.Kind == workload.Write})
				}
			}
			refs[i] = stream
		}
		nexts = append(nexts, float64(time.Since(start).Nanoseconds())/float64(calls))
		ps.next.ops = float64(calls)
	}
	ps.next.ns = median(nexts)

	var misses [][]memRef
	ps.cache, misses = probeCache(arch, refs)
	ps.am = probeAM(arch, misses)
	ps.dir = probeDirectory(n, arch, misses)
	return ps, nil
}

// probeCache replays every processor's references through a fresh
// cache and returns the references that missed.
func probeCache(arch config.Arch, refs [][]memRef) (probe, [][]memRef) {
	var times []float64
	var misses [][]memRef
	var ops float64
	for r := 0; r < probeRepeats; r++ {
		caches := make([]*cache.Cache, len(refs))
		for i := range caches {
			caches[i] = cache.New(arch)
		}
		misses = make([][]memRef, len(refs))
		ops = 0
		start := time.Now()
		for i, stream := range refs {
			c := caches[i]
			for t, ref := range stream {
				if _, hit := c.Access(ref.addr, ref.write, uint64(t), int64(t)); !hit {
					c.Fill(ref.addr, ref.write, uint64(t), int64(t))
					misses[i] = append(misses[i], ref)
				}
			}
			ops += float64(len(stream))
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/ops)
	}
	return probe{median(times), ops}, misses
}

// probeAM installs every missed item in its processor's attraction
// memory, replacing the least recently used page when the set is full.
func probeAM(arch config.Arch, misses [][]memRef) probe {
	var times []float64
	var ops float64
	for r := 0; r < probeRepeats; r++ {
		ams := make([]*am.AM, len(misses))
		for i := range ams {
			ams[i] = am.New(arch, proto.NodeID(i))
		}
		ops = 0
		start := time.Now()
		for i, stream := range misses {
			a := ams[i]
			for t, ref := range stream {
				item := arch.ItemOf(ref.addr)
				page := arch.PageOf(item)
				if !a.HasFrame(page) {
					if !a.FreeWay(page) {
						victim, ok := a.VictimPage(page)
						if !ok {
							continue
						}
						a.DropFrame(victim)
					}
					a.AllocFrame(page, false, int64(t))
				}
				a.Touch(page, int64(t))
				if a.Slot(item).State == proto.Invalid {
					a.Set(item, am.Slot{State: proto.Shared, Value: uint64(t), Partner: proto.None})
				}
			}
			ops += float64(len(stream))
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/ops)
	}
	return probe{median(times), ops}
}

// probeDirectory resolves every missed item's home and entry.
func probeDirectory(n int, arch config.Arch, misses [][]memRef) probe {
	var times []float64
	var ops float64
	var sink proto.NodeID
	for r := 0; r < probeRepeats; r++ {
		d := directory.New(n)
		ops = 0
		start := time.Now()
		for i, stream := range misses {
			for _, ref := range stream {
				item := arch.ItemOf(ref.addr)
				sink ^= d.Home(item)
				if d.Lookup(item) == nil {
					d.Ensure(item).Owner = proto.NodeID(i)
				}
			}
			ops += float64(len(stream))
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/ops)
	}
	probeSink = sink
	return probe{median(times), ops}
}

// probeSink keeps the compiler from discarding the probed results.
var probeSink proto.NodeID
