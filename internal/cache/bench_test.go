package cache

import (
	"testing"

	"coma/internal/config"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(config.KSR1(16))
	c.Fill(0x1000, true, 7, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false, 0, int64(i))
	}
}

func BenchmarkFillEvict(b *testing.B) {
	arch := config.KSR1(16)
	c := New(arch)
	stride := uint64(arch.CacheLineSize * arch.CacheSectors * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*stride, false, 0, int64(i))
	}
}

// TestAccessAndFillAllocs gates the hit path and fills at zero
// allocations: a fill into a present sector, into a free way, and one
// that evicts a dirty sector (its write-back list is reused).
func TestAccessAndFillAllocs(t *testing.T) {
	arch := config.KSR1(16)
	c := New(arch)
	stride := uint64(arch.CacheSize / arch.CacheWays) // same set, next way
	c.FillDirty(0x1000, 7, 0)
	cases := []struct {
		name string
		op   func(i int)
	}{
		{"read hit", func(i int) { c.Access(0x1000, false, 0, int64(i)) }},
		{"write hit", func(i int) { c.Access(0x1000, true, uint64(i), int64(i)) }},
		{"fill present sector", func(i int) { c.Fill(0x1040, false, uint64(i), int64(i)) }},
		{"fill free way", func(i int) {
			c.InvalidateAll()
			c.Fill(0x1000, false, uint64(i), int64(i))
		}},
		{"evicting fill", func(i int) {
			c.FillDirty(uint64(i%(2*arch.CacheWays))*stride, uint64(i), int64(i))
		}},
	}
	for _, tc := range cases {
		i := 0
		tc.op(i) // grow what the operation reuses
		if allocs := testing.AllocsPerRun(100, func() { i++; tc.op(i) }); allocs != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, allocs)
		}
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("the evicting fills wrote nothing back")
	}
}
