package fixture

import "coma/internal/sim"

// sink is an EventSink: its OnEvent runs on the dispatcher, so the
// process-blocking sim primitives must not be called from it.
type sink struct {
	p   *sim.Process
	f   *sim.Future[int]
	r   *sim.Resource
	b   *sim.Barrier
	g   *sim.Gate
	eng *sim.Engine
}

func (s *sink) OnEvent(e *sim.Engine, arg int64) {
	s.p.Wait(1)      // want `Process.Wait blocks a process but OnEvent runs in event context`
	s.p.WaitUntil(9) // want `Process.WaitUntil blocks a process`
	s.p.Park()       // want `Process.Park blocks a process`
	s.f.Await(s.p)   // want `Future.Await blocks a process`
	s.r.Acquire(s.p) // want `Resource.Acquire blocks a process`
	s.r.Use(s.p, 3)  // want `Resource.Use blocks a process`
	s.b.Arrive(s.p)  // want `Barrier.Arrive blocks a process`
	s.g.Wait(s.p)    // want `Gate.Wait blocks a process`

	// Event-context waits and hand-offs are fine.
	e.AfterSink(1, s, arg)
	if s.r.AcquireSink(e, s, arg) {
		s.r.Release(e)
	}
	e.Resume(s.p)
}

// Outside OnEvent the same calls are ordinary process code.
func processBody(p *sim.Process, r *sim.Resource) {
	p.Wait(1)
	r.Use(p, 3)
}
