package coherence

import (
	"testing"

	"coma/internal/mesh"
	"coma/internal/proto"
	"coma/internal/sim"
)

// The read-miss rig: item 100's home is node 0; owner writes it, reader
// reads it. Each round first has the owner write the item again (a local
// upgrade that invalidates the reader's copy), so the read misses every
// time, through the home handler, the forward to the owner, the owner's
// handler and the data reply.
const (
	missOwner, missReader proto.NodeID = 1, 2
	missItem              proto.ItemID = 100
)

// readMissRound runs one round of the rig and checks the value read.
func readMissRound(tb testing.TB, r *rig, p *sim.Process, v uint64) {
	r.e.WriteItem(p, missOwner, missItem, v)
	if got := r.e.ReadItem(p, missReader, missItem); got != v {
		tb.Fatalf("read %d, want %d", got, v)
	}
}

// BenchmarkReadMissRoundTrip measures a remote read miss through the
// protocol engine: the requester's lookup pass, the home handler, the
// forward to the owner, the owner's handler and the data reply.
func BenchmarkReadMissRoundTrip(b *testing.B) {
	b.ReportAllocs()
	r := newRig(b, 4, Standard, Options{})
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, missOwner, missItem, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			readMissRound(b, r, p, uint64(i+2))
		}
	})
	if r.counters[missReader].FillsRemote != int64(b.N) {
		b.Fatalf("remote fills = %d, want %d", r.counters[missReader].FillsRemote, b.N)
	}
}

// TestReadMissAllocs gates the steady-state remote read miss and the
// write upgrade before it at zero allocations: reply futures, item locks
// and ack counters come back from the engine's free lists.
func TestReadMissAllocs(t *testing.T) {
	r := newRig(t, 4, Standard, Options{})
	var allocs float64
	r.run(func(p *sim.Process) {
		v := uint64(1)
		round := func() { readMissRound(t, r, p, v); v++ }
		// Warm up until every queue, free list and timing-wheel slot the
		// rounds use has grown to its steady size.
		for i := 0; i < 1000; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(100, round)
	})
	if allocs != 0 {
		t.Fatalf("read miss round = %v allocs, want 0", allocs)
	}
}

// TestPooledReplyCompletePanics checks that a reply future sitting in
// the free list is still done: completing it again panics instead of
// waking whoever takes it next.
func TestPooledReplyCompletePanics(t *testing.T) {
	r := newRig(t, 4, Standard, Options{})
	r.run(func(p *sim.Process) { readMissRound(t, r, p, 1) })
	f := r.e.replies.take()
	if f == nil {
		t.Fatal("no reply future in the free list after a remote miss")
	}
	defer func() {
		if recover() == nil {
			t.Error("completing a pooled reply future did not panic")
		}
	}()
	f.Complete(r.eng, mesh.Message{})
}
