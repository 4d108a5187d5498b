package directory

import (
	"testing"

	"coma/internal/proto"
)

// benchDirectory tracks the shared items and one private region of a
// 16-node machine, the layout the workload generators produce.
func benchDirectory() *Directory {
	d := New(16)
	for item := proto.ItemID(0); item < 4096; item++ {
		d.Ensure(item).Owner = proto.NodeID(item % 16)
	}
	for item := proto.ItemID(1 << 23); item < 1<<23+384; item++ {
		d.Ensure(item).Owner = 0
	}
	return d
}

func BenchmarkDirectoryLookup(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		d := benchDirectory()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d.Lookup(proto.ItemID(i%4096)) == nil {
				b.Fatal("tracked item missing")
			}
		}
	})
	b.Run("absent", func(b *testing.B) {
		d := benchDirectory()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Untouched items in another processor's private region.
			if d.Lookup(proto.ItemID(1<<23+131456+i%4096)) != nil {
				b.Fatal("untouched item found")
			}
		}
	})
}
