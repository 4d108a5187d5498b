package machine

import (
	"maps"
	"testing"

	"coma/internal/proto"
)

func oracleImage(o *valueOracle) map[proto.ItemID]uint64 {
	return maps.Collect(o.all())
}

func TestOracleRollbackBeforeFirstCommitEmpties(t *testing.T) {
	o := newValueOracle()
	o.write(5, 1<<48|1)
	o.write(1<<23, 1<<48|2)
	o.rollback()
	if img := oracleImage(o); len(img) != 0 {
		t.Fatalf("oracle after a rollback before any commit = %v, want empty", img)
	}
	if o.value(5) != 0 || o.committed(5) != 0 {
		t.Fatal("rolled-back item still has a value")
	}
}

func TestOracleRollbackRestoresLastCommit(t *testing.T) {
	o := newValueOracle()
	o.write(1, 11)
	o.write(2, 21)
	o.commit()
	o.write(2, 22)
	o.write(3, 31)
	o.commit()
	// Written since the second commit: an old item twice, a new item.
	o.write(1, 12)
	o.write(1, 13)
	o.write(4, 41)
	o.rollback()
	want := map[proto.ItemID]uint64{1: 11, 2: 22, 3: 31}
	if img := oracleImage(o); !maps.Equal(img, want) {
		t.Fatalf("oracle after rollback = %v, want %v", img, want)
	}
	// A second failure in the same interval restores the same commit.
	o.write(2, 23)
	o.rollback()
	if img := oracleImage(o); !maps.Equal(img, want) {
		t.Fatalf("oracle after a second rollback = %v, want %v", img, want)
	}
}

func TestOracleCommittedSeesOnlyLastCommit(t *testing.T) {
	o := newValueOracle()
	o.write(1, 11)
	o.commit()
	o.write(1, 12) // committed item rewritten
	o.write(2, 21) // created after the commit
	for _, c := range []struct {
		item proto.ItemID
		want uint64
	}{{1, 11}, {2, 0}, {3, 0}, {proto.NoItem, 0}} {
		if got := o.committed(c.item); got != c.want {
			t.Fatalf("committed(%d) = %d, want %d", c.item, got, c.want)
		}
	}
	o.commit()
	if o.committed(2) != 21 || o.committed(1) != 12 {
		t.Fatal("committed values did not advance with the commit")
	}
}

func BenchmarkOracleWriteCommit(b *testing.B) {
	// A recovery-point interval: 256 writes over a written set of 8192
	// shared and private items, then a commit.
	var items [8192]proto.ItemID
	for i := range items {
		items[i] = proto.ItemID(i)
		if i%2 == 1 {
			items[i] = 1<<23 + proto.ItemID(i)
		}
	}
	o := newValueOracle()
	for i, item := range items {
		o.write(item, uint64(i+1))
	}
	o.commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < 256; w++ {
			o.write(items[(i*256+w)%len(items)], uint64(i+1))
		}
		o.commit()
	}
}
