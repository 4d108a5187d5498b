package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 2) }) // same time: schedule order
	e.At(20, func() { got = append(got, 3) })
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 20 {
		t.Fatalf("end time = %d, want 20", end)
	}
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New()
	var at int64 = -1
	e.After(7, func() { at = e.Now() })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7 {
		t.Fatalf("event ran at %d, want 7", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	end, err := e.RunUntil(20)
	if err != nil {
		t.Fatal(err)
	}
	if end != 20 {
		t.Fatalf("end = %d, want 20", end)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at exactly the limit fire)", fired)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d after resume, want 3", fired)
	}
}

func TestStop(t *testing.T) {
	e := New()
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestHeapManyEvents(t *testing.T) {
	e := New()
	r := NewRNG(42)
	const n = 5000
	times := make([]int64, n)
	for i := range times {
		times[i] = r.Int63n(1000)
	}
	var prev int64 = -1
	count := 0
	for _, ti := range times {
		ti := ti
		e.At(ti, func() {
			if ti < prev {
				t.Fatalf("event at %d fired after %d", ti, prev)
			}
			prev = ti
			count++
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("dispatched %d, want %d", count, n)
	}
	if e.Events() != n {
		t.Fatalf("Events() = %d, want %d", e.Events(), n)
	}
}

// TestSameCycleScheduleOrder pins the fast-path contract: events
// scheduled for the current cycle while the engine is running (they take
// the nowq FIFO, not the heap) still interleave with already-queued
// events at that cycle in strict schedule order.
func TestSameCycleScheduleOrder(t *testing.T) {
	e := New()
	var got []string
	e.At(10, func() {
		got = append(got, "a")
		e.At(10, func() { // same cycle, scheduled during dispatch
			got = append(got, "c")
			e.At(10, func() { got = append(got, "e") })
		})
	})
	e.At(10, func() { // pre-queued at the same cycle: fires before "c"
		got = append(got, "b")
		e.At(10, func() { got = append(got, "d") })
	})
	e.At(11, func() { got = append(got, "f") }) // later cycle: last
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "abcdef"
	if s := joinStrings(got); s != want {
		t.Fatalf("dispatch order %q, want %q", s, want)
	}
}

func joinStrings(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s
	}
	return out
}

// TestSameCycleWakeInterleavesWithEvents checks that a Wait(0) wake (the
// allocation-free proc event on the fast path) keeps schedule order
// against plain callbacks at the same cycle.
func TestSameCycleWakeInterleavesWithEvents(t *testing.T) {
	e := New()
	var got []string
	e.Spawn("p", func(p *Process) {
		p.Wait(5)
		got = append(got, "wake1")
		p.Wait(0) // yields; the callback scheduled below at 5 runs first
		got = append(got, "wake2")
	})
	e.At(5, func() { got = append(got, "cb") })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The process spawns at 0 and parks; its time-5 wake was scheduled at
	// spawn+wait time (seq before the At above? No: Spawn schedules at 0,
	// the process runs and schedules its wake only during Run). Order:
	// cb was scheduled before Run, the wake during it, so cb fires first.
	want := "cb,wake1,wake2"
	if s := joinComma(got); s != want {
		t.Fatalf("order %q, want %q", s, want)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %d, want 5", e.Now())
	}
}

func joinComma(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// TestRunUntilWithSameCycleEvents checks that events spawned for the
// current cycle at exactly the limit still fire before RunUntil returns.
func TestRunUntilWithSameCycleEvents(t *testing.T) {
	e := New()
	fired := 0
	e.At(20, func() {
		fired++
		e.At(20, func() { fired++ }) // same-cycle, at the limit
	})
	e.At(30, func() { fired++ })
	end, err := e.RunUntil(20)
	if err != nil {
		t.Fatal(err)
	}
	if end != 20 || fired != 2 {
		t.Fatalf("end = %d fired = %d, want 20 and 2", end, fired)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d after resume, want 3", fired)
	}
}

// TestStopLeavesSameCycleEventsResumable: Stop during a burst of
// same-cycle events must not lose the pending ones; a later Run resumes
// them in order.
func TestStopLeavesSameCycleEventsResumable(t *testing.T) {
	e := New()
	var got []int
	e.At(5, func() {
		got = append(got, 1)
		e.At(5, func() { got = append(got, 2) })
		e.At(5, func() { got = append(got, 3) })
		e.Stop()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("fired %v before stop, want just the stopper", got)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("resumed order %v, want [1 2 3]", got)
	}
}

func TestProcessWait(t *testing.T) {
	e := New()
	var trace []int64
	e.Spawn("walker", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			trace = append(trace, p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	if e.Processes() != 0 {
		t.Fatalf("live processes = %d, want 0", e.Processes())
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var order []string
		for _, d := range []struct {
			name string
			step int64
		}{{"a", 3}, {"b", 5}, {"c", 7}} {
			d := d
			e.Spawn(d.name, func(p *Process) {
				for i := 0; i < 4; i++ {
					p.Wait(d.step)
					order = append(order, d.name)
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d: order diverged at %d: %v vs %v", i, j, again, first)
			}
		}
	}
}

func TestWaitUntil(t *testing.T) {
	e := New()
	var at int64
	e.Spawn("p", func(p *Process) {
		p.WaitUntil(15)
		p.WaitUntil(10) // already past: no-op
		at = p.Now()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("at = %d, want 15", at)
	}
}

func TestShutdownKillsParkedProcesses(t *testing.T) {
	e := New()
	f := NewFuture[int]()
	cleaned := false
	e.Spawn("stuck", func(p *Process) {
		defer func() { cleaned = true }()
		f.Await(p) // never completed
		t.Error("process resumed past an incomplete future")
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processes() != 1 {
		t.Fatalf("live processes = %d, want 1 (parked)", e.Processes())
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("live processes after shutdown = %d, want 0", e.Processes())
	}
	if !cleaned {
		t.Error("deferred cleanup did not run on kill")
	}
}

func TestShutdownManyProcesses(t *testing.T) {
	e := New()
	g := NewGate()
	for i := 0; i < 50; i++ {
		e.Spawn("w", func(p *Process) { g.Wait(p); p.Wait(1e18) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("live processes = %d, want 0", e.Processes())
	}
}

func TestNestedRunRejected(t *testing.T) {
	e := New()
	var nested error
	e.At(1, func() { _, nested = e.Run() })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if nested != ErrNested {
		t.Fatalf("nested Run error = %v, want ErrNested", nested)
	}
}

// TestShutdownDropsUnstartedProcess: a process spawned in the run's last
// cycle, whose start event never fired, has no coroutine to kill;
// Shutdown must drop it without running it, now or in a later Run.
func TestShutdownDropsUnstartedProcess(t *testing.T) {
	e := New()
	ran := false
	e.At(5, func() {
		e.Spawn("late", func(p *Process) { ran = true })
		e.Stop()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Processes() != 1 {
		t.Fatalf("live processes = %d, want 1 (spawned, not started)", e.Processes())
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Fatalf("live processes after shutdown = %d, want 0", e.Processes())
	}
	if _, err := e.Run(); err != nil { // the stale start event must not run it
		t.Fatal(err)
	}
	if ran {
		t.Error("unstarted process ran")
	}
}

// TestProcessPanicSurfacesOnCaller: a process panic re-raises from
// RunUntil on the caller's goroutine, where recover catches it, and the
// engine is left consistent: not running, the crashed process gone, and
// Shutdown still reaps the others.
func TestProcessPanicSurfacesOnCaller(t *testing.T) {
	e := New()
	cleaned := false
	e.Spawn("parked", func(p *Process) {
		defer func() { cleaned = true }()
		NewFuture[int]().Await(p)
	})
	e.Spawn("boom", func(p *Process) {
		p.Wait(3)
		panic("kaboom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if want := `sim: process "boom" panicked: kaboom`; got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
	if e.running {
		t.Error("engine still running after the crash")
	}
	if e.Now() != 3 || e.Processes() != 1 {
		t.Errorf("now = %d, processes = %d; want 3 and 1", e.Now(), e.Processes())
	}
	e.Shutdown()
	if e.Processes() != 0 || !cleaned {
		t.Errorf("after shutdown: processes = %d, cleanup ran = %v", e.Processes(), cleaned)
	}
}

// TestRunUntilFromTwoGoroutines drives one engine in chunks, alternating
// the RunUntil caller between two goroutines (the pattern of interactive
// stepping), and checks the dispatch order matches a single Run.
func TestRunUntilFromTwoGoroutines(t *testing.T) {
	workload := func(e *Engine) *[]string {
		order := new([]string)
		f := NewFuture[int]()
		e.Spawn("a", func(p *Process) {
			for i := 0; i < 5; i++ {
				p.Wait(7)
				*order = append(*order, "a")
			}
			f.Complete(e, 1)
		})
		e.Spawn("b", func(p *Process) {
			f.Await(p)
			for i := 0; i < 5; i++ {
				p.Wait(3)
				*order = append(*order, "b")
			}
		})
		return order
	}
	ref := New()
	want := workload(ref)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	e := New()
	got := workload(e)
	turns := [2]chan int64{make(chan int64), make(chan int64)}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := range turns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for limit := range turns[g] {
				if _, err := e.RunUntil(limit); err != nil {
					t.Error(err)
				}
				done <- struct{}{}
			}
		}()
	}
	for limit := int64(0); e.Processes() > 0; limit += 4 {
		turns[limit/4%2] <- limit
		<-done
	}
	close(turns[0])
	close(turns[1])
	wg.Wait()
	if joinComma(*got) != joinComma(*want) || e.Now() != ref.Now() {
		t.Fatalf("chunked order %v at %d, want %v at %d", *got, e.Now(), *want, ref.Now())
	}
	e.Shutdown()
}

// TestWorkerPoolReuse: sequential short-lived processes share one pooled
// coroutine, a finished handle lets go of it, and Shutdown stops every
// idle coroutine.
func TestWorkerPoolReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	var first *Process
	for i := 0; i < 10; i++ {
		p := e.Spawn("churn", func(p *Process) { p.Wait(1) })
		if first == nil {
			first = p
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.idle) != 1 || first.w != nil {
		t.Fatalf("idle workers = %d, finished handle bound = %v; want 1 and false",
			len(e.idle), first.w != nil)
	}
	e.Shutdown()
	if n := runtime.NumGoroutine(); n > base || len(e.idle) != 0 {
		t.Fatalf("goroutines = %d (want at most %d), idle = %d after shutdown", n, base, len(e.idle))
	}
}

// resumeSink resumes a process inline each time one of its events fires.
type resumeSink struct{ p *Process }

func (s resumeSink) OnEvent(e *Engine, _ int64) { e.Resume(s.p) }

// TestResumeInline: a process made by NewProcess schedules nothing and
// starts on its first Resume; each later Resume takes it up from Park
// inside the sink's event, so the only events are the sink's own and
// the wakes of the process's real blocking steps.
func TestResumeInline(t *testing.T) {
	e := New()
	var log []string
	p := e.NewProcess("inline", func(p *Process) {
		for i := 0; ; i++ {
			log = append(log, fmt.Sprintf("step%d@%d", i, p.Now()))
			if i == 1 {
				p.Wait(5) // blocks: the dispatcher, not the sink, resumes it
				log = append(log, fmt.Sprintf("woke@%d", p.Now()))
			}
			p.Park()
		}
	})
	if wheel, overflow, nowq := e.QueueStats(); e.Processes() != 1 || wheel+overflow+nowq != 0 {
		t.Fatalf("NewProcess: %d processes, %d pending events; want 1 and 0",
			e.Processes(), wheel+overflow+nowq)
	}
	for _, at := range []int64{3, 4, 20} {
		e.AtSink(at, resumeSink{p}, 0)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"step0@3", "step1@4", "woke@9", "step2@20"}
	if !slices.Equal(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	if e.Events() != 4 {
		t.Errorf("events = %d, want 4 (three sink events and one wake)", e.Events())
	}
	e.Shutdown()
	if e.Processes() != 0 {
		t.Errorf("processes after shutdown = %d", e.Processes())
	}
}

// TestResumeInlinePanicsInProcess: only the dispatcher may switch, so a
// Resume issued by a running process panics.
func TestResumeInlinePanicsInProcess(t *testing.T) {
	e := New()
	other := e.NewProcess("other", func(p *Process) {})
	e.Spawn("caller", func(p *Process) { e.Resume(other) })
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	want := `sim: process "caller" panicked: sim: Resume of "other" from inside process "caller"`
	if got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
	e.Shutdown()
}

type boomSink struct{}

func (boomSink) OnEvent(*Engine, int64) { panic("kaboom") }

// TestSinkPanicSurfacesOnCaller: a panic in a sink event re-raises from
// RunUntil naming the sink type and the cycle, and leaves the engine
// not running.
func TestSinkPanicSurfacesOnCaller(t *testing.T) {
	e := New()
	e.After(2, func() {})
	e.AtSink(7, boomSink{}, 0)
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if want := "sim: event sim.boomSink at cycle 7 panicked: kaboom"; got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
	if e.running || e.cur != nil {
		t.Error("engine still running after the crash")
	}
}
