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
// makes a fresh Process, so a handle never aliases a later process even
// though the coroutine underneath is pooled.
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
	e.nextPID++
	p := &Process{eng: e, id: e.nextPID, name: name, fn: fn}
	e.procs[p] = struct{}{}
	e.schedule(event{time: e.now, kind: evStart, proc: p})
	return p
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
	w.resume()
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
// Engine.WakeNow. It is the escape hatch for building synchronisation
// primitives outside this package (for example the coherence engine's
// per-item transaction locks); prefer Wait/Await/Acquire where they fit.
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
