package coherence

import (
	"fmt"

	"coma/internal/mesh"
	"coma/internal/proto"
	"coma/internal/sim"
)

// A remote handler serves one delivered protocol message at its
// destination node. Each holds one of the node's AM controllers for a
// fixed service time and then runs its body in event context; only the
// inject-data handler waits first (InjectAckDelay). None ever blocks on
// anything else, so a handler is a staged sink over a slab record rather
// than a process, and each stage takes exactly the event a process
// would have taken at the same point: its start, the controller hand-off
// from the FIFO, the end of service.
type handler struct {
	stage handlerStage
	node  proto.NodeID
	msg   mesh.Message
}

type handlerStage uint8

const (
	hStart    handlerStage = iota // dispatched: the process's start event
	hAcked                        // inject-data: the ack delay is over
	hAcquired                     // the controller was handed over from its FIFO
	hServed                       // the service time is over
)

// handlers is the per-engine slab of in-flight handler records, the
// EventSink their stages run on. The event arg is the record index.
type handlers struct {
	e    *Engine
	recs []handler
	free []int64
}

// start parks m for node n and schedules the handler's first stage at
// the current cycle.
func (h *handlers) start(n proto.NodeID, m mesh.Message) {
	i := int64(len(h.recs))
	if k := len(h.free); k > 0 {
		i = h.free[k-1]
		h.free = h.free[:k-1]
		h.recs[i] = handler{node: n, msg: m}
	} else {
		h.recs = append(h.recs, handler{node: n, msg: m})
	}
	h.e.eng.AtSink(h.e.eng.Now(), h, i)
}

// OnEvent implements sim.EventSink: it runs the next stage of record i.
func (h *handlers) OnEvent(eng *sim.Engine, i int64) {
	e := h.e
	r := &h.recs[i]
	switch r.stage {
	case hStart:
		if r.msg.Kind == proto.MsgInjectData {
			r.stage = hAcked
			eng.AfterSink(e.arch.InjectAckDelay, h, i)
			return
		}
	case hAcked:
		e.ackInjectData(r.node, r.msg)
	case hAcquired:
		r.stage = hServed
		eng.AfterSink(e.serviceTime(r.msg.Kind), h, i)
		return
	case hServed:
		e.ctl[r.node].Release(eng)
		n, m := r.node, r.msg
		h.recs[i] = handler{}
		h.free = append(h.free, i)
		e.handle(n, m)
		return
	}
	// hStart and hAcked continue here: claim a controller.
	r.stage = hAcquired
	if e.ctl[r.node].AcquireSink(eng, h, i) {
		r.stage = hServed
		eng.AfterSink(e.serviceTime(r.msg.Kind), h, i)
	}
}

// serviceTime is the controller time a remote handler charges.
func (e *Engine) serviceTime(k proto.MsgKind) int64 {
	switch k {
	case proto.MsgReadReq, proto.MsgWriteReq, proto.MsgInjectProbe:
		return e.arch.DirLookup
	case proto.MsgReadFwd, proto.MsgWriteFwd, proto.MsgInjectData:
		return e.arch.MemTransfer
	case proto.MsgInvalidate, proto.MsgPreCommitUpgrade:
		return e.arch.AMAccess
	default:
		panic(fmt.Sprintf("coherence: no remote handler for %v", k))
	}
}

// handle runs a remote handler's body once its controller time is over.
func (e *Engine) handle(n proto.NodeID, m mesh.Message) {
	switch m.Kind {
	case proto.MsgReadReq, proto.MsgWriteReq:
		e.homeRequest(n, m)
	case proto.MsgReadFwd:
		e.ownerRead(n, m)
	case proto.MsgWriteFwd:
		e.ownerWrite(n, m)
	case proto.MsgInvalidate:
		e.handleInvalidate(n, m)
	case proto.MsgInjectProbe:
		e.handleInjectProbe(n, m)
	case proto.MsgPreCommitUpgrade:
		e.handlePreCommitUpgrade(n, m)
	case proto.MsgInjectData:
		// The copy into memory was the service time; nothing follows.
	default:
		panic(fmt.Sprintf("coherence: node %v has no remote handler for %v", n, m))
	}
}

// homeRequest handles a read or write request arriving at the item's home
// node: it consults the localisation pointer and either grants a cold
// first touch or forwards the request to the current owner.
func (e *Engine) homeRequest(h proto.NodeID, m mesh.Message) {
	entry := e.dir.Lookup(m.Item)
	if entry == nil || entry.Owner == proto.None {
		// The item has never been written: it is initialised-background
		// memory (the paper measures the parallel phase of applications
		// whose data was initialised earlier). Reads receive Shared
		// zero-filled copies tracked in the sharing set; the first write
		// invalidates them and creates the master. The initiator holds
		// the item lock, so updating the entry here is race-free.
		entry = e.dir.Ensure(m.Item)
		acks := 0
		if m.Kind == proto.MsgWriteReq {
			entry.Sharers.ForEach(func(s proto.NodeID) {
				if s == m.Requester {
					return
				}
				acks++
				e.net.Send(mesh.Message{
					Kind:      proto.MsgInvalidate,
					Src:       h,
					Dst:       s,
					Item:      m.Item,
					Requester: m.Requester,
					Txn:       m.Txn,
				})
			})
			entry.Sharers.Clear()
			entry.Owner = m.Requester
		} else {
			entry.Sharers.Add(m.Requester)
		}
		e.net.Send(mesh.Message{
			Kind:  proto.MsgColdGrant,
			Src:   h,
			Dst:   m.Requester,
			Item:  m.Item,
			Arg:   int64(acks),
			Reply: m.Token,
			Txn:   m.Txn,
		})
		return
	}
	fwd := proto.MsgReadFwd
	if m.Kind == proto.MsgWriteReq {
		fwd = proto.MsgWriteFwd
	}
	e.net.Send(mesh.Message{
		Kind:      fwd,
		Src:       h,
		Dst:       entry.Owner,
		Item:      m.Item,
		Requester: m.Requester,
		Token:     m.Token,
		Txn:       m.Txn,
	})
}

// ownerRead serves a forwarded read miss at the owning node: it reads the
// item, adds the requester to the sharing set and replies with data. An
// Exclusive owner downgrades to MasterShared; a Shared-CK1 owner serves
// the read unchanged (the ECP lets recovery copies serve misses).
func (e *Engine) ownerRead(o proto.NodeID, m mesh.Message) {
	slot := e.ams[o].Slot(m.Item)
	switch slot.State {
	case proto.Exclusive:
		e.ams[o].SetState(m.Item, proto.MasterShared)
		e.cacheOps.DowngradeItem(o, m.Item)
	case proto.MasterShared, proto.SharedCK1:
		// Serve as-is.
	default:
		panic(fmt.Sprintf("coherence: node %v asked to serve read of item %d in %v",
			o, m.Item, slot.State))
	}
	entry := e.dir.Lookup(m.Item)
	entry.Sharers.Add(m.Requester)
	e.net.Send(mesh.Message{
		Kind:  proto.MsgDataReply,
		Src:   o,
		Dst:   m.Requester,
		Item:  m.Item,
		Value: slot.Value,
		State: proto.Shared,
		Reply: m.Token,
		Txn:   m.Txn,
	})
}

// ownerWrite serves a forwarded write miss at the owning node: it
// invalidates every sharer (they acknowledge directly to the requester),
// hands data and ownership to the requester, and — under the ECP, when
// the item was unmodified since the last recovery point — downgrades the
// Shared-CK pair to Inv-CK instead of destroying it.
func (e *Engine) ownerWrite(o proto.NodeID, m mesh.Message) {
	slot := e.ams[o].Slot(m.Item)
	entry := e.dir.Lookup(m.Item)
	acks := 0
	entry.Sharers.ForEach(func(s proto.NodeID) {
		if s == m.Requester {
			return
		}
		acks++
		e.net.Send(mesh.Message{
			Kind:      proto.MsgInvalidate,
			Src:       o,
			Dst:       s,
			Item:      m.Item,
			Requester: m.Requester,
			Txn:       m.Txn,
		})
	})
	entry.Sharers.Clear()

	switch slot.State {
	case proto.Exclusive, proto.MasterShared:
		// The standard protocol destroys the old master after the data
		// moves.
		e.ams[o].SetState(m.Item, proto.Invalid)
		e.cacheOps.InvalidateItem(o, m.Item)
	case proto.SharedCK1:
		// ECP §3.2: the two Shared-CK copies become Inv-CK and are kept
		// for a possible recovery.
		e.ams[o].SetState(m.Item, proto.InvCK1)
		e.cacheOps.InvalidateItem(o, m.Item)
		if slot.Partner == proto.None {
			panic(fmt.Sprintf("coherence: Shared-CK1 of item %d on %v has no partner", m.Item, o))
		}
		if slot.Partner == m.Requester {
			panic(fmt.Sprintf("coherence: requester %v still holds the CK2 copy of item %d",
				m.Requester, m.Item))
		}
		acks++
		e.net.Send(mesh.Message{
			Kind:      proto.MsgInvalidate,
			Src:       o,
			Dst:       slot.Partner,
			Item:      m.Item,
			Requester: m.Requester,
			Txn:       m.Txn,
		})
	default:
		panic(fmt.Sprintf("coherence: node %v asked to serve write of item %d in %v",
			o, m.Item, slot.State))
	}

	entry.Owner = m.Requester
	// Localisation-pointer update: state is already consistent (the
	// simulator mutates under the item lock); the message carries timing.
	if h := e.dir.Home(m.Item); h != o && h != m.Requester {
		e.net.Send(mesh.Message{Kind: proto.MsgHomeUpdate, Src: o, Dst: h, Item: m.Item, Txn: m.Txn})
	}

	e.net.Send(mesh.Message{
		Kind:  proto.MsgDataReply,
		Src:   o,
		Dst:   m.Requester,
		Item:  m.Item,
		Value: slot.Value,
		State: proto.Exclusive,
		Arg:   int64(acks),
		Reply: m.Token,
		Txn:   m.Txn,
	})
}

// handleInvalidate processes an invalidation at a node holding a Shared
// copy (drop it) or the Shared-CK2 copy (downgrade to Inv-CK2), then
// acknowledges to the requester.
func (e *Engine) handleInvalidate(n proto.NodeID, m mesh.Message) {
	e.counters[n].InvalidationsIn++
	switch st := e.ams[n].State(m.Item); st {
	case proto.Shared:
		e.ams[n].SetState(m.Item, proto.Invalid)
	case proto.SharedCK2:
		e.ams[n].SetState(m.Item, proto.InvCK2)
	case proto.Invalid:
		// The copy was dropped (frame eviction or injection overwrite)
		// while the invalidation was in flight; just acknowledge.
	default:
		panic(fmt.Sprintf("coherence: node %v invalidating item %d in %v", n, m.Item, st))
	}
	e.cacheOps.InvalidateItem(n, m.Item)
	e.net.Send(mesh.Message{
		Kind: proto.MsgInvalidateAck,
		Src:  n,
		Dst:  m.Requester,
		Item: m.Item,
		Txn:  m.Txn,
	})
}

// handlePreCommitUpgrade turns a local Shared copy into the PreCommit2
// recovery copy of the establishment in progress — the paper's
// replication-reuse optimisation: no data transfer happens.
func (e *Engine) handlePreCommitUpgrade(n proto.NodeID, m mesh.Message) {
	if st := e.ams[n].State(m.Item); st != proto.Shared {
		panic(fmt.Sprintf("coherence: pre-commit upgrade of item %d on %v in %v", m.Item, n, st))
	}
	e.ams[n].SetState(m.Item, proto.PreCommit2)
	e.ams[n].SetPartner(m.Item, m.Src)
	e.net.Send(mesh.Message{
		Kind:  proto.MsgPreCommitUpgradeAck,
		Src:   n,
		Dst:   m.Src,
		Item:  m.Item,
		Reply: m.Token,
		Txn:   m.Txn,
	})
}
