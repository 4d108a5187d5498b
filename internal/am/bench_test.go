package am

import (
	"testing"

	"coma/internal/config"
	"coma/internal/proto"
)

func BenchmarkSlotAccess(b *testing.B) {
	a := New(config.KSR1(16), 0)
	a.AllocFrame(0, false, 0)
	a.Set(5, Slot{State: proto.Exclusive, Value: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Slot(5)
	}
}

func BenchmarkModifiedItemsScan(b *testing.B) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	// 64 consecutive pages spread across the sets, one modified item each.
	for f := 0; f < 64; f++ {
		a.AllocFrame(proto.PageID(f), false, int64(f))
		a.Set(arch.FirstItem(proto.PageID(f)), Slot{State: proto.Exclusive})
	}
	buf := make([]proto.ItemID, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = a.ModifiedItems(buf[:0])
	}
}

// BenchmarkAMLookupMiss probes a page that is absent from a full set, so
// every lookup compares all the set's ways.
func BenchmarkAMLookupMiss(b *testing.B) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	sets := proto.PageID(arch.AMSets())
	for w := 0; w < arch.AMWays; w++ {
		a.AllocFrame(proto.PageID(w)*sets, false, 0)
	}
	absent := proto.PageID(arch.AMWays) * sets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.HasFrame(absent) {
			b.Fatal("absent page found")
		}
	}
}

// TestAllocFrameReusedWayAllocs gates AllocFrame at zero allocations on
// a way whose slots an earlier frame made.
func TestAllocFrameReusedWayAllocs(t *testing.T) {
	arch := config.KSR1(16)
	a := New(arch, 0)
	sets := proto.PageID(arch.AMSets())
	a.AllocFrame(0, false, 0)
	a.DropFrame(0)
	page := proto.PageID(0)
	allocs := testing.AllocsPerRun(100, func() {
		page += sets // same set, so the freed way is reused
		a.AllocFrame(page, false, 0)
		a.DropFrame(page)
	})
	if allocs != 0 {
		t.Fatalf("AllocFrame on a reused way = %v allocs, want 0", allocs)
	}
}

// TestNewAllocsIndependentOfFrames checks that New backs no frame: an
// AM of 512 frames costs as many allocations as one of 64.
func TestNewAllocsIndependentOfFrames(t *testing.T) {
	big := config.KSR1(16)
	small := big
	small.AMSize = 1 << 20
	count := func(arch config.Arch) float64 {
		return testing.AllocsPerRun(10, func() { New(arch, 0) })
	}
	if b, s := count(big), count(small); b != s {
		t.Fatalf("New allocs: %v for %d frames, %v for %d frames", b, big.AMFrames(), s, small.AMFrames())
	}
}
