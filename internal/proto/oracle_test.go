package proto

import (
	"maps"
	"testing"
)

func oracleImage(o *ValueOracle) map[ItemID]uint64 {
	return maps.Collect(o.All())
}

func TestOracleRollbackBeforeFirstCommitEmpties(t *testing.T) {
	o := NewValueOracle()
	o.Write(5, 1<<48|1)
	o.Write(1<<23, 1<<48|2)
	o.Rollback()
	if img := oracleImage(o); len(img) != 0 {
		t.Fatalf("oracle after a rollback before any commit = %v, want empty", img)
	}
	if o.Value(5) != 0 || o.Committed(5) != 0 {
		t.Fatal("rolled-back item still has a value")
	}
}

func TestOracleRollbackRestoresLastCommit(t *testing.T) {
	o := NewValueOracle()
	o.Write(1, 11)
	o.Write(2, 21)
	o.Commit()
	o.Write(2, 22)
	o.Write(3, 31)
	o.Commit()
	// Written since the second commit: an old item twice, a new item.
	o.Write(1, 12)
	o.Write(1, 13)
	o.Write(4, 41)
	o.Rollback()
	want := map[ItemID]uint64{1: 11, 2: 22, 3: 31}
	if img := oracleImage(o); !maps.Equal(img, want) {
		t.Fatalf("oracle after rollback = %v, want %v", img, want)
	}
	// A second failure in the same interval restores the same commit.
	o.Write(2, 23)
	o.Rollback()
	if img := oracleImage(o); !maps.Equal(img, want) {
		t.Fatalf("oracle after a second rollback = %v, want %v", img, want)
	}
}

func TestOracleCommittedSeesOnlyLastCommit(t *testing.T) {
	o := NewValueOracle()
	o.Write(1, 11)
	o.Commit()
	o.Write(1, 12) // committed item rewritten
	o.Write(2, 21) // created after the commit
	for _, c := range []struct {
		item ItemID
		want uint64
	}{{1, 11}, {2, 0}, {3, 0}, {NoItem, 0}} {
		if got := o.Committed(c.item); got != c.want {
			t.Fatalf("committed(%d) = %d, want %d", c.item, got, c.want)
		}
	}
	o.Commit()
	if o.Committed(2) != 21 || o.Committed(1) != 12 {
		t.Fatal("committed values did not advance with the commit")
	}
}

func BenchmarkOracleWriteCommit(b *testing.B) {
	// A recovery-point interval: 256 writes over a written set of 8192
	// shared and private items, then a commit.
	var items [8192]ItemID
	for i := range items {
		items[i] = ItemID(i)
		if i%2 == 1 {
			items[i] = 1<<23 + ItemID(i)
		}
	}
	o := NewValueOracle()
	for i, item := range items {
		o.Write(item, uint64(i+1))
	}
	o.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < 256; w++ {
			o.Write(items[(i*256+w)%len(items)], uint64(i+1))
		}
		o.Commit()
	}
}
