package coherence

import (
	"testing"

	"coma/internal/sim"
)

// BenchmarkReadMissRoundTrip measures a remote read miss through the
// protocol engine: the requester's lookup pass, the home handler, the
// forward to the owner, the owner's handler and the data reply. Each
// iteration first has the owner write the item again (a local upgrade
// that invalidates the reader's copy), so the read misses every time.
func BenchmarkReadMissRoundTrip(b *testing.B) {
	b.ReportAllocs()
	r := newRig(b, 4, Standard, Options{})
	const owner, reader, item = 1, 2, 100 // item 100's home is node 0
	r.run(func(p *sim.Process) {
		r.e.WriteItem(p, owner, item, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.e.WriteItem(p, owner, item, uint64(i+2))
			if got := r.e.ReadItem(p, reader, item); got != uint64(i+2) {
				b.Fatalf("read %d, want %d", got, i+2)
			}
		}
	})
	if r.counters[reader].FillsRemote != int64(b.N) {
		b.Fatalf("remote fills = %d, want %d", r.counters[reader].FillsRemote, b.N)
	}
}
