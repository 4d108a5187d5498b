package machine

import (
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/workload"
)

// BenchmarkMachineNew measures building a 16-node KSR1 machine running
// ECP Mp3d: the setup every run pays before its first event.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	cfg := Config{
		Arch: config.KSR1(16), Protocol: coherence.ECP,
		App: workload.Mp3d().Scale(0.1), Seed: 1, CheckpointHz: 400, Oracle: true,
	}
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
