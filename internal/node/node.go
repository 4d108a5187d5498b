// Package node assembles one processing node of the simulated machine: a
// blocking in-order processor driven by a workload generator, its sectored
// data cache, and the glue to the coherence engine (the attraction memory
// and its controllers live in the coherence layer) and to the recovery
// coordinator.
package node

import (
	"fmt"

	"coma/internal/cache"
	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/core"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/stats"
	"coma/internal/workload"
)

// maxBatch bounds how many cycles of cache-hit work a processor
// accumulates before yielding to the engine, so quiesce requests are
// honoured promptly and timing error stays far below a checkpoint
// interval.
const maxBatch = 200

// Hooks are the machine-level callbacks a node reports through.
type Hooks struct {
	// OnWrite records a completed store (the value oracle).
	OnWrite func(n proto.NodeID, item proto.ItemID, value uint64)
	// CheckRead validates a load that hit in the cache (strict mode).
	CheckRead func(n proto.NodeID, item proto.ItemID, value uint64)
	// WorkloadEnded reports that the node's reference stream finished.
	WorkloadEnded func(n proto.NodeID)
	// WorkloadResumed reports that a rollback rewound a finished stream
	// and the node is computing again.
	WorkloadResumed func(n proto.NodeID)
}

// Node is one processing node.
type Node struct {
	id    proto.NodeID
	arch  config.Arch
	cache *cache.Cache
	coh   *coherence.Engine
	co    *core.Coordinator
	gen   workload.Generator
	c     *stats.Node
	hooks Hooks

	// strict makes the processor yield (and oracle-check) on every
	// memory reference instead of batching cache hits; slower, used by
	// correctness tests.
	strict bool

	writeSeq uint64

	// The processor loop's state between events (see Start).
	eng   *sim.Engine
	proc  *sim.Process // runs the steps that block
	block stage        // the step that blocks, handed to proc
	batch int64        // cycles of cache-hit work not yet charged
	ref   workload.Ref // the memory reference in progress
	item  proto.ItemID // ref's item
	value uint64       // the value ref stores, or the value it loaded
	start int64        // when ref's AM lookup pass began
}

// New builds a node. The coordinator may not be nil: it also implements
// application barriers.
func New(id proto.NodeID, arch config.Arch, ch *cache.Cache, coh *coherence.Engine,
	co *core.Coordinator, gen workload.Generator, c *stats.Node, strict bool, hooks Hooks) *Node {
	return &Node{
		id:     id,
		arch:   arch,
		cache:  ch,
		coh:    coh,
		co:     co,
		gen:    gen,
		c:      c,
		strict: strict,
		hooks:  hooks,
	}
}

// ID implements core.NodeOps.
func (n *Node) ID() proto.NodeID { return n.id }

// Cache returns the node's processor cache.
func (n *Node) Cache() *cache.Cache { return n.cache }

// Generator returns the node's workload generator.
func (n *Node) Generator() workload.Generator { return n.gen }

// FlushCache implements core.NodeOps: write dirty lines back to the local
// AM (values are already coherent in the simulator's write-through value
// model; the cycles model the physical write-back) and drop write
// permission everywhere.
func (n *Node) FlushCache(p *sim.Process) {
	dirty := int64(n.cache.DirtyLines())
	if dirty > 0 {
		p.Wait(dirty * n.arch.CacheFlushPerLine)
	}
	n.cache.FlushDirty(func(addr, value uint64) {})
	n.cache.DowngradeAll()
	n.c.FlushedLines += dirty
}

// ClearCache implements core.NodeOps.
func (n *Node) ClearCache() { n.cache.InvalidateAll() }

// InvalidateItem implements the coherence engine's cache hook for this
// node.
func (n *Node) InvalidateItem(item proto.ItemID) {
	n.cache.InvalidateItem(n.itemAddr(item))
}

// DowngradeItem implements the coherence engine's cache hook.
func (n *Node) DowngradeItem(item proto.ItemID) {
	n.cache.DowngradeItem(n.itemAddr(item))
}

func (n *Node) itemAddr(item proto.ItemID) uint64 {
	return uint64(item) * uint64(n.arch.ItemSize)
}

// nextValue produces a globally unique store value: high bits identify
// the node, low bits count its stores.
func (n *Node) nextValue() uint64 {
	n.writeSeq++
	return uint64(n.id)<<48 | n.writeSeq
}

// stage is where the processor loop takes up again when an event it
// scheduled fires (the event arg), or a step that blocks, which run
// returns for the node's process to take.
type stage int64

const (
	stWaiting        stage = iota // run scheduled the loop's next event
	stTop                         // the top of the loop: safe point, next reference
	stAccess                      // the strict-mode flush is over: access the cache
	stHitDone                     // a cache hit's batch is charged: strict read check
	stMissDelay                   // the pre-miss flush is over: charge CacheAccess
	stLookup                      // start the AM lookup pass
	stLookupAcquired              // a controller was handed over from its FIFO
	stLookupDone                  // the lookup pass's AMAccess cycles are over
	stReadFill                    // the read has its value: fill the cache
	stWriteFill                   // the write completed in the AM: fill the cache
	stFilled                      // evicted lines are written back

	// Steps that block on more than a delay or an AM controller. The
	// first three are also the events of the flush before them.
	stPause     // Participate in checkpoint/recovery rounds
	stEnd       // the workload ended: serve rounds
	stBarrier   // the application barrier
	stReadMiss  // the coherence transaction of a read miss
	stWriteMiss // the coherence transaction of a write miss
)

// Start makes the node's processor and schedules its first step at the
// current cycle. The processor loop (run) is an EventSink: it executes
// the reference stream, charging one cycle per instruction and per cache
// hit, until it must wait. A wait for a delay or an AM controller is an
// event on the node; any other step that blocks (an AM miss, a barrier,
// a checkpoint or recovery round) is handed to the node's process,
// entered inline, which runs the loop on after the step until its next
// wait and then parks.
func (n *Node) Start(e *sim.Engine) {
	n.eng = e
	n.proc = e.NewProcess(fmt.Sprintf("proc%d", n.id), n.body)
	e.AtSink(e.Now(), n, int64(stTop))
}

// OnEvent implements sim.EventSink: the processor loop takes up at the
// stage in arg.
func (n *Node) OnEvent(e *sim.Engine, arg int64) {
	if n.block = n.run(stage(arg)); n.block != stWaiting {
		e.Resume(n.proc)
	}
}

// body is the node's process: it takes the step the loop handed over,
// runs the loop on, and parks once the loop has scheduled its next
// event. It returns when the node dies permanently.
func (n *Node) body(p *sim.Process) {
	for {
		st, alive := n.blocking(p, n.block)
		if !alive {
			return
		}
		if n.block = n.run(st); n.block == stWaiting {
			p.Park() // until OnEvent hands over the next step
		}
	}
}

// blocking runs step s in the node's process and returns the stage the
// loop takes up at, or false if the node died permanently.
func (n *Node) blocking(p *sim.Process, s stage) (stage, bool) {
	switch s {
	case stPause:
		return stTop, n.co.Participate(p, n)
	case stEnd:
		if n.hooks.WorkloadEnded != nil {
			n.hooks.WorkloadEnded(n.id)
		}
		n.co.ProcessorFinished(n.id)
		// Keep serving checkpoint/recovery rounds: the AM still holds
		// live state.
		if !n.co.ServeRounds(p, n) {
			return stTop, false // permanent death
		}
		// A rollback rewound the generator; keep computing.
		if n.hooks.WorkloadResumed != nil {
			n.hooks.WorkloadResumed(n.id)
		}
		return stTop, true
	case stBarrier:
		return stTop, n.co.AppBarrier(p, n)
	case stReadMiss:
		n.value = n.coh.ReadMiss(p, n.id, n.item, n.start)
		return stReadFill, true
	case stWriteMiss:
		n.coh.WriteMiss(p, n.id, n.item, n.value, n.start)
		return stWriteFill, true
	}
	panic(fmt.Sprintf("node: %v handed no step to its process", n.id))
}

// run executes the processor loop from stage st until it schedules its
// next event (stWaiting) or reaches a step that blocks, which it returns.
func (n *Node) run(st stage) stage {
	for {
		switch st {
		case stTop:
			if n.co.PauseRequested() {
				st = n.flush(stPause)
				continue
			}
			r := n.gen.Next()
			switch r.Kind {
			case workload.End:
				st = n.flush(stEnd)
			case workload.Instr:
				n.c.Instructions += r.N
				n.batch += r.N
				if n.batch >= maxBatch {
					st = n.flush(stTop)
				}
			case workload.Barrier:
				st = n.flush(stBarrier)
			case workload.Read, workload.Write:
				n.c.Instructions++
				if r.Kind == workload.Read {
					n.c.Reads++
					if r.Shared {
						n.c.SharedReads++
					}
				} else {
					n.c.Writes++
					if r.Shared {
						n.c.SharedWrites++
					}
				}
				n.ref = r
				st = stAccess
				if n.strict {
					st = n.flush(stAccess)
				}
			}
		case stAccess:
			st = n.access()
			if n.batch >= maxBatch || st == stMissDelay {
				st = n.flush(st)
			}
		case stHitDone:
			if n.ref.Kind == workload.Read && n.strict && n.hooks.CheckRead != nil {
				n.hooks.CheckRead(n.id, n.item, n.value)
			}
			st = stTop
		case stMissDelay:
			n.eng.AfterSink(n.arch.CacheAccess, n, int64(stLookup))
			return stWaiting
		case stLookup:
			n.start = n.eng.Now()
			if n.coh.BeginLookup(n.id, n.ref.Kind == workload.Write, n, int64(stLookupAcquired)) {
				n.eng.AfterSink(n.arch.AMAccess, n, int64(stLookupDone))
			}
			return stWaiting
		case stLookupAcquired:
			n.eng.AfterSink(n.arch.AMAccess, n, int64(stLookupDone))
			return stWaiting
		case stLookupDone:
			if n.ref.Kind == workload.Read {
				var hit bool
				if n.value, hit = n.coh.ReadLookup(n.id, n.item); !hit {
					return stReadMiss
				}
				st = stReadFill
			} else {
				if !n.coh.WriteLookup(n.id, n.item, n.value) {
					return stWriteMiss
				}
				st = stWriteFill
			}
		case stReadFill:
			// The transaction may have taken many cycles; only fill the
			// cache if the AM copy is still live (a racing remote write
			// may already have invalidated it — filling would resurrect
			// a stale value).
			st = stTop
			if s := n.coh.AM(n.id).State(n.item); s.Readable() {
				st = n.writeback(n.cache.Fill(n.ref.Addr, s == proto.Exclusive, n.value, n.eng.Now()), stTop)
			}
		case stWriteFill:
			if n.hooks.OnWrite != nil {
				n.hooks.OnWrite(n.id, n.item, n.value)
			}
			// Only fill if exclusivity survived the transaction's
			// completion instant (a queued remote writer may have taken
			// the item since), and refresh any sibling line of the item
			// already cached.
			st = stTop
			if n.coh.AM(n.id).State(n.item) == proto.Exclusive {
				st = n.writeback(n.cache.FillDirty(n.ref.Addr, n.value, n.eng.Now()), stFilled)
			}
		case stFilled:
			if n.ref.Kind == workload.Write {
				n.cache.SetItemValue(n.itemAddr(n.item), n.value)
			}
			st = stTop
		default: // stWaiting or a step that blocks
			return st
		}
	}
}

// access looks the reference up in the cache. On a hit it charges the
// access to the batch and returns stHitDone; on a miss it returns
// stMissDelay, to be taken up once the batch is flushed.
func (n *Node) access() stage {
	r := n.ref
	n.item = n.arch.ItemOf(r.Addr)
	if r.Kind == workload.Read {
		v, hit := n.cache.Access(r.Addr, false, 0, n.eng.Now()+n.batch)
		if !hit {
			return stMissDelay
		}
		n.value = v
	} else {
		n.value = n.nextValue()
		if _, hit := n.cache.Access(r.Addr, true, n.value, n.eng.Now()+n.batch); !hit {
			return stMissDelay
		}
		// Write hit: the line is writable, so the local AM copy is
		// Exclusive; propagate the value (write-through value model,
		// write-back timing — see DESIGN.md).
		n.cache.SetItemValue(n.itemAddr(n.item), n.value)
		n.coh.WriteThrough(n.id, n.item, n.value)
		if n.hooks.OnWrite != nil {
			n.hooks.OnWrite(n.id, n.item, n.value)
		}
	}
	n.batch += n.arch.CacheAccess
	return stHitDone
}

// flush charges the accumulated batch of cache-hit and instruction
// cycles. If there is one it schedules the loop to take up at next once
// the batch has elapsed and returns stWaiting; otherwise it returns next.
func (n *Node) flush(next stage) stage {
	if n.batch == 0 {
		return next
	}
	n.eng.AfterSink(n.batch, n, int64(next))
	n.batch = 0
	return stWaiting
}

// writeback charges the physical write-back of the dirty lines a fill
// evicted (values are already coherent: write-through value model). If
// there are any it schedules the loop to take up at stFilled once they
// are written and returns stWaiting; otherwise it returns next.
func (n *Node) writeback(wbs []cache.Writeback, next stage) stage {
	if len(wbs) == 0 {
		return next
	}
	n.eng.AfterSink(int64(len(wbs))*n.arch.CacheFlushPerLine, n, int64(stFilled))
	return stWaiting
}
