package sim

import (
	"fmt"
	"iter"
)

// killedSignal is the panic value used to unwind a process terminated by
// Engine.Shutdown. It never escapes the process wrapper.
type killedSignal struct{}

// Process is a lightweight simulated process: a coroutine that runs only
// while the engine has resumed it, and that blocks on simulated time
// (Wait), futures (Await), resources (Acquire) and barriers. Each Spawn
// or NewProcess makes a fresh Process, so a handle never aliases a later
// process even though the coroutine underneath is pooled.
type Process struct {
	eng    *Engine
	id     int
	name   string
	fn     func(*Process)
	w      *worker // nil before the start event and after fn returns
	killed bool
}

// worker is a pooled coroutine (iter.Pull) that runs processes one after
// another. resume switches from the engine into the worker until its
// process parks or finishes; yield switches back. A finished process
// returns its worker to the engine's idle pool for the next start.
type worker struct {
	p      *Process
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// Spawn starts fn as a new process at the current simulated time. The name
// is used in diagnostics only. fn receives the Process handle it must use
// for all blocking operations.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := e.NewProcess(name, fn)
	e.schedule(event{time: e.now, kind: evStart, proc: p})
	return p
}

// NewProcess creates a process that runs fn but, unlike Spawn, schedules
// nothing: it starts on its first Resume. It counts as live from now on.
func (e *Engine) NewProcess(name string, fn func(p *Process)) *Process {
	e.nextPID++
	p := &Process{eng: e, id: e.nextPID, name: name, fn: fn}
	e.procs[p] = struct{}{}
	return p
}

// Resume switches into p inline from event context, without scheduling
// or dispatching an event, and returns when p parks or finishes. A
// process made by NewProcess starts here; otherwise p must be parked
// with no wake pending, so that nothing else resumes it. It lets an
// EventSink hand a step that blocks to a process and take up its
// non-blocking work again afterwards. Resume panics if a process is
// running: only the dispatcher may switch.
func (e *Engine) Resume(p *Process) {
	if e.cur != nil {
		panic(fmt.Sprintf("sim: Resume of %q from inside process %q", p.name, e.cur.name))
	}
	if p.w == nil {
		e.start(p)
		return
	}
	e.switchTo(p)
}

// start dispatches p's start event: it binds p to an idle worker (or a
// new one) and runs it until it first parks or finishes. A process
// dropped by Shutdown before it started never runs.
func (e *Engine) start(p *Process) {
	if p.killed {
		return
	}
	var w *worker
	if n := len(e.idle); n > 0 {
		w = e.idle[n-1]
		e.idle = e.idle[:n-1]
	} else {
		w = e.newWorker()
	}
	w.p, p.w = p, w
	e.switchTo(p)
}

// switchTo runs p's coroutine until it parks or finishes, recording it
// as the running process meanwhile.
func (e *Engine) switchTo(p *Process) {
	e.cur = p
	p.w.resume()
	e.cur = nil
}

func (e *Engine) newWorker() *worker {
	w := &worker{}
	w.resume, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			w.p.run()
			w.p.w, w.p = nil, nil
			e.idle = append(e.idle, w)
			if !yield(struct{}{}) {
				return // stopped by Shutdown while idle
			}
		}
	})
	return w
}

// run executes the process body. A kill unwinds silently; a real panic
// is re-raised with the process name, and iter.Pull carries it out of
// the resume call on the engine's goroutine (the RunUntil caller). The
// worker dies with it, so only clean finishes return to the pool.
func (p *Process) run() {
	defer func() {
		delete(p.eng.procs, p)
		if r := recover(); r != nil {
			if _, ok := r.(killedSignal); !ok {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
	}()
	p.fn(p)
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() int64 { return p.eng.now }

// park blocks until something wakes this process. Every blocking
// primitive funnels through here: it switches back to the engine, whose
// dispatch loop resumes this coroutine when the process's wake event
// fires (or Shutdown kills it).
func (p *Process) park() {
	p.w.yield(struct{}{})
	if p.killed {
		panic(killedSignal{})
	}
}

// Park blocks the process until another component wakes it with
// Engine.WakeNow, or resumes it inline with Engine.Resume. It is the
// escape hatch for building synchronisation primitives outside this
// package (for example the coherence engine's per-item transaction
// locks); prefer Wait/Await/Acquire where they fit.
func (p *Process) Park() { p.park() }

// Wait blocks the process for d simulated cycles. Wait(0) yields control
// for the current cycle (other events at the same time may run).
func (p *Process) Wait(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q waiting negative %d", p.name, d))
	}
	e := p.eng
	e.atWake(e.now+d, p)
	p.park()
}

// WaitUntil blocks the process until absolute time t (a no-op if t is not
// in the future).
func (p *Process) WaitUntil(t int64) {
	if t <= p.eng.now {
		return
	}
	p.Wait(t - p.eng.now)
}
