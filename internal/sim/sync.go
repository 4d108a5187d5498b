package sim

import "fmt"

// Future is a one-shot completion carrying a value of type T. Processes
// Await it; any number may wait; Complete wakes them all at the current
// simulated time. Completing twice is a programming error. A completed
// future can be Reset for reuse, so a hot path can pool its futures.
type Future[T any] struct {
	done bool
	val  T
	// first is the first waiter, held inline because almost every future
	// has exactly one; more holds the rest in arrival order.
	first *Process
	more  []*Process
}

// NewFuture returns an incomplete future.
func NewFuture[T any]() *Future[T] { return &Future[T]{} }

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the completed value; it panics if the future is not done.
func (f *Future[T]) Value() T {
	if !f.done {
		panic("sim: Value on incomplete future")
	}
	return f.val
}

// Complete resolves the future with v and wakes all waiters.
func (f *Future[T]) Complete(e *Engine, v T) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = v
	if f.first != nil {
		e.wakeNow(f.first)
		f.first = nil
	}
	for i, p := range f.more {
		e.wakeNow(p)
		f.more[i] = nil
	}
	f.more = f.more[:0]
}

// Reset makes a completed future incomplete again, for reuse. It panics
// unless the future is done and has no waiters: resetting a future that
// someone may still complete or await would hand that party a later
// transaction's value. A pool should Reset a future when it takes it
// out, not when it puts it back, so that a stray Complete of a pooled
// future still panics as a second completion.
func (f *Future[T]) Reset() {
	if !f.done || f.first != nil || len(f.more) > 0 {
		panic("sim: Reset of an incomplete or awaited future")
	}
	var zero T
	f.done = false
	f.val = zero
}

// Await blocks p until the future completes and returns its value.
func (f *Future[T]) Await(p *Process) T {
	if f.done {
		return f.val
	}
	if f.first == nil {
		f.first = p
	} else {
		f.more = append(f.more, p)
	}
	p.park()
	if !f.done {
		panic("sim: process woken before future completion")
	}
	return f.val
}

// Resource is a multi-server FIFO resource (for example the four
// independent AM controllers of a node, or a network interface). Acquire
// blocks when all servers are busy; Release hands the server to the
// longest waiter. Processes (Acquire) and event sinks (AcquireSink)
// queue in the same FIFO.
type Resource struct {
	name     string
	capacity int
	inUse    int
	waiters  []waiter

	// Busy-time accounting for utilisation statistics.
	busyCycles int64
	lastChange int64
}

// waiter is one queued acquirer: a parked process, or a sink to notify
// with arg once the server is handed to it.
type waiter struct {
	proc *Process
	sink EventSink
	arg  int64
}

// NewResource returns a resource with the given number of servers.
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{name: name, capacity: capacity}
}

// Acquire blocks p until a server is free, then claims it.
func (r *Resource) Acquire(p *Process) {
	e := p.eng
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.account(e)
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, waiter{proc: p})
	p.park()
	// The releasing side transferred the server to us (inUse unchanged).
}

// AcquireSink is Acquire for event context. It claims a free server and
// returns true, or queues (sink, arg) in the same FIFO as blocked
// processes and returns false; the Release that hands the server over
// then schedules sink.OnEvent(arg) at its own cycle, the event a
// process wake would take.
func (r *Resource) AcquireSink(e *Engine, sink EventSink, arg int64) bool {
	if r.TryAcquire(e) {
		return true
	}
	r.waiters = append(r.waiters, waiter{sink: sink, arg: arg})
	return false
}

// TryAcquire claims a server if one is immediately free, without blocking.
func (r *Resource) TryAcquire(e *Engine) bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.account(e)
		r.inUse++
		return true
	}
	return false
}

// Release frees one server, handing it directly to the longest waiter if
// any. It panics if the resource is not held.
func (r *Resource) Release(e *Engine) {
	if r.inUse == 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = waiter{}
		r.waiters = r.waiters[:len(r.waiters)-1]
		// The server stays in use, transferred to next.
		if next.proc != nil {
			e.wakeNow(next.proc)
		} else {
			e.AtSink(e.now, next.sink, next.arg)
		}
		return
	}
	r.account(e)
	r.inUse--
}

// Use is the common acquire-hold-release pattern: claim a server, hold it
// for d cycles of service, release it.
func (r *Resource) Use(p *Process, d int64) {
	r.Acquire(p)
	p.Wait(d)
	r.Release(p.eng)
}

// InUse returns the number of busy servers.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of blocked acquirers.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// BusyCycles returns the integral of busy servers over time, in
// server-cycles, up to the current engine time.
func (r *Resource) BusyCycles(e *Engine) int64 {
	return r.busyCycles + int64(r.inUse)*(e.now-r.lastChange)
}

func (r *Resource) account(e *Engine) {
	r.busyCycles += int64(r.inUse) * (e.now - r.lastChange)
	r.lastChange = e.now
}

// Barrier synchronises a fixed group of processes: each calls Arrive and
// blocks until all n have arrived, then all resume and the barrier resets
// for the next round.
type Barrier struct {
	n       int
	arrived int
	waiters []*Process
	rounds  int64
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	return &Barrier{n: n}
}

// Resize changes the participant count (used when a node fails
// permanently). It panics if more processes are already waiting than the
// new size allows.
func (b *Barrier) Resize(e *Engine, n int) {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	b.n = n
	b.maybeOpen(e)
}

// Rounds returns the number of completed barrier episodes.
func (b *Barrier) Rounds() int64 { return b.rounds }

// Waiting returns the number of currently blocked participants.
func (b *Barrier) Waiting() int { return b.arrived }

// Arrive blocks p until all participants have arrived. It returns true for
// the participant that completed the round (the last arriver).
func (b *Barrier) Arrive(p *Process) bool {
	b.arrived++
	if b.arrived >= b.n {
		b.open(p.eng)
		return true
	}
	b.waiters = append(b.waiters, p)
	p.park()
	return false
}

func (b *Barrier) maybeOpen(e *Engine) {
	if b.arrived >= b.n && b.arrived > 0 {
		b.open(e)
	}
}

func (b *Barrier) open(e *Engine) {
	for _, w := range b.waiters {
		e.wakeNow(w)
	}
	b.waiters = nil
	b.arrived = 0
	b.rounds++
}

// Gate is a broadcast condition: processes Wait on it; Open wakes them all.
// Unlike a Future it can be reused (Close re-arms it).
type Gate struct {
	open    bool
	waiters []*Process
}

// NewGate returns a closed gate.
func NewGate() *Gate { return &Gate{} }

// IsOpen reports whether the gate is currently open.
func (g *Gate) IsOpen() bool { return g.open }

// Open releases all waiting processes and lets subsequent Wait calls pass
// through immediately.
func (g *Gate) Open(e *Engine) {
	g.open = true
	for _, w := range g.waiters {
		e.wakeNow(w)
	}
	g.waiters = nil
}

// Close re-arms the gate.
func (g *Gate) Close() { g.open = false }

// Wait blocks p until the gate is open.
func (g *Gate) Wait(p *Process) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park()
}
