package txnview

import (
	"fmt"
	"slices"

	"coma/internal/obs"
	"coma/internal/proto"
)

// replay is the trace-replay state machine shared by Check and
// Coverage: it tracks every item copy's coherence state across the
// trace, synthesises the scan transforms that the simulator's bulk
// scans perform without per-item events, and evaluates the recovery
// invariants (proto/invariant.go) at every drained point: round
// quiesce, commit, round end and trace end.
//
// Sources of state knowledge:
//
//   - KState events record individual transitions (installs,
//     invalidations, downgrades, injections).
//   - The commit and recovery scans mutate whole attraction memories in
//     one pass and emit only KPhaseEnd; their effect is synthesised here
//     from the protocol definition (PreCommit -> Shared-CK and Inv-CK
//     discarded at commit; current state dropped and Inv-CK restored at
//     rollback).
//   - KFault destroys a node's AM contents wholesale.
type replay struct {
	// copies[item][node] is the item's non-Invalid state on the node.
	copies map[proto.ItemID]map[proto.NodeID]proto.State
	// pending[txn] snapshots fill-legality predicates at access begin.
	pending map[proto.TxnID]fillSnap
	// observed counts every state transition seen or synthesised.
	observed map[transKey]int64

	round  int64 // current round number (0 outside rounds)
	mode   int64 // current round mode (KRoundBegin.A)
	rounds int64 // rounds completed

	view  []proto.Copy      // invariant view, reused at every drained point
	found []proto.Violation // its breaches, reused likewise
	errs  []string
}

type fillSnap struct {
	anyCopy  bool // some non-Invalid copy existed at begin
	anyOwner bool // some owner-state copy existed at begin
}

type transKey struct{ from, to proto.State }

func newReplay() *replay {
	return &replay{
		copies:   make(map[proto.ItemID]map[proto.NodeID]proto.State),
		pending:  make(map[proto.TxnID]fillSnap),
		observed: make(map[transKey]int64),
	}
}

const maxErrors = 20

func (r *replay) errorf(format string, args ...any) {
	if len(r.errs) < maxErrors {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	} else if len(r.errs) == maxErrors {
		r.errs = append(r.errs, "further violations suppressed")
	}
}

func (r *replay) state(item proto.ItemID, n proto.NodeID) proto.State {
	if m := r.copies[item]; m != nil {
		return m[n] // zero value is Invalid
	}
	return proto.Invalid
}

func (r *replay) set(item proto.ItemID, n proto.NodeID, s proto.State) {
	m := r.copies[item]
	if s == proto.Invalid {
		if m != nil {
			delete(m, n)
			if len(m) == 0 {
				delete(r.copies, item)
			}
		}
		return
	}
	if m == nil {
		m = make(map[proto.NodeID]proto.State)
		r.copies[item] = m
	}
	m[n] = s
}

// step replays one event. i is the event's index (for diagnostics).
func (r *replay) step(i int, ev obs.Event) {
	switch ev.Kind {
	case obs.KState:
		if cur := r.state(ev.Item, ev.Node); cur != ev.From {
			r.errorf("event %d (cycle %d, round %d): node %v item %d records %v -> %v but replay holds the copy in %v",
				i, ev.Time, r.round, ev.Node, ev.Item, ev.From, ev.To, cur)
		}
		r.observed[transKey{ev.From, ev.To}]++
		r.set(ev.Item, ev.Node, ev.To)

	case obs.KTxnBegin:
		if ev.Txn != proto.NoTxn && ev.Item != proto.NoItem &&
			(ev.A == obs.TxnRead || ev.A == obs.TxnWrite) {
			var s fillSnap
			for _, st := range r.copies[ev.Item] {
				s.anyCopy = true
				if st.Owner() {
					s.anyOwner = true
				}
			}
			r.pending[ev.Txn] = s
		}

	case obs.KTxnEnd:
		// For read/write transactions (the only ones in pending) the
		// end event's A is the fill source, so legality is judged here:
		// the fill events themselves do not carry the transaction id on
		// the wire.
		snap, ok := r.pending[ev.Txn]
		if !ok {
			break // not an access txn, or its begin was filtered out
		}
		delete(r.pending, ev.Txn)
		switch ev.A {
		case obs.FillRemote:
			if !snap.anyCopy {
				r.errorf("event %d (cycle %d, round %d): node %v filled item %d remotely but no copy existed anywhere when %v began — fill from an invalid copy",
					i, ev.Time, r.round, ev.Node, ev.Item, ev.Txn)
			}
		case obs.FillCold:
			if snap.anyOwner {
				r.errorf("event %d (cycle %d, round %d): node %v cold-filled item %d but an owner copy existed when %v began — the master was bypassed",
					i, ev.Time, r.round, ev.Node, ev.Item, ev.Txn)
			}
		}

	case obs.KPhaseEnd:
		switch obs.Phase(ev.A) {
		case obs.PhaseCommit:
			r.scan(ev.Node, commitTransform)
		case obs.PhaseRecoveryScan:
			r.scan(ev.Node, recoveryTransform)
		case obs.PhaseCreate, obs.PhaseReconfigure, obs.NumPhases:
			// Create and reconfigure mutate through the state hook;
			// every change already arrived as KState.
		}

	case obs.KFault:
		// Fail-silent: the node's AM contents are gone. Not a protocol
		// transition, so nothing is recorded as coverage.
		for item, m := range r.copies {
			if _, ok := m[ev.Node]; ok {
				delete(m, ev.Node)
				if len(m) == 0 {
					delete(r.copies, item)
				}
			}
		}

	case obs.KRoundBegin:
		r.round = ev.B
		r.mode = ev.A

	case obs.KRoundQuiesced:
		r.checkAt(i, ev.Time, "quiesce", proto.AtDrained)

	case obs.KCommitted:
		r.checkAt(i, ev.Time, "commit", proto.AtCommit)

	case obs.KRoundEnd:
		if ev.A == 1 { // recovery round
			r.checkAt(i, ev.Time, "recovery round end", proto.AtRollback)
		} else {
			r.checkAt(i, ev.Time, "round end", proto.AtDrained)
		}
		r.rounds++
		r.round, r.mode = 0, 0
	}
}

// scan applies a bulk AM-scan transform to every copy on one node,
// recording the synthesised transitions.
func (r *replay) scan(n proto.NodeID, transform func(proto.State) (proto.State, bool)) {
	for item, m := range r.copies {
		st, ok := m[n]
		if !ok {
			continue
		}
		to, changed := transform(st)
		if !changed {
			continue
		}
		r.observed[transKey{st, to}]++
		r.set(item, n, to)
	}
}

// commitTransform is the commit scan: PreCommit copies become the new
// recovery point, Inv-CK copies of the previous one are discarded.
func commitTransform(s proto.State) (proto.State, bool) {
	switch s {
	case proto.PreCommit1:
		return proto.SharedCK1, true
	case proto.PreCommit2:
		return proto.SharedCK2, true
	case proto.InvCK1, proto.InvCK2:
		return proto.Invalid, true
	case proto.Invalid, proto.Shared, proto.MasterShared, proto.Exclusive,
		proto.SharedCK1, proto.SharedCK2:
		return s, false
	}
	return s, false
}

// recoveryTransform is the rollback scan: current and pre-commit copies
// are dropped, Inv-CK copies are restored to Shared-CK.
func recoveryTransform(s proto.State) (proto.State, bool) {
	switch s {
	case proto.Shared, proto.Exclusive, proto.MasterShared,
		proto.PreCommit1, proto.PreCommit2:
		return proto.Invalid, true
	case proto.InvCK1:
		return proto.SharedCK1, true
	case proto.InvCK2:
		return proto.SharedCK2, true
	case proto.Invalid, proto.SharedCK1, proto.SharedCK2:
		return s, false
	}
	return s, false
}

// checkAt evaluates the invariants of protocol point at
// (proto/invariant.go) on the replayed copies. The trace carries no
// partner pointers, so the view has none.
func (r *replay) checkAt(i int, t int64, where string, at proto.Point) {
	r.view = r.view[:0]
	for item, m := range r.copies {
		for n, st := range m {
			r.view = append(r.view, proto.Copy{Item: item, Node: n, State: st, Partner: proto.None})
		}
	}
	slices.SortFunc(r.view, proto.CompareCopies)
	r.found = at.Check(r.found[:0], r.view, false)
	for _, v := range r.found {
		r.errorf("event %d (cycle %d, round %d): at %s: %v", i, t, r.round, where, v)
	}
}
