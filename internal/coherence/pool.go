package coherence

import (
	"coma/internal/mesh"
	"coma/internal/sim"
)

// freeList holds records a finished transaction gave back, so the next
// one reuses them instead of allocating: reply futures, item locks and
// ack counters. It is per engine, like everything the dispatcher owns.
type freeList[T any] struct{ free []*T }

// take returns a record given back earlier, or nil when there is none.
func (l *freeList[T]) take() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// put gives a record back. The caller must hold no other reference.
func (l *freeList[T]) put(x *T) { l.free = append(l.free, x) }

// newReply returns an incomplete future for the final response of a
// request. A reused future is Reset here, on the way out of the free
// list: one completed again while it sat in the list still panics.
func (e *Engine) newReply() *sim.Future[mesh.Message] {
	if f := e.replies.take(); f != nil {
		f.Reset()
		return f
	}
	return sim.NewFuture[mesh.Message]()
}

// awaitReply blocks p until the reply arrives and gives the future back.
// The reply is the future's only completion: it travels as the Token of
// one request chain whose last leg carries it as Reply.
func (e *Engine) awaitReply(p *sim.Process, f *sim.Future[mesh.Message]) mesh.Message {
	m := f.Await(p)
	e.replies.put(f)
	return m
}
