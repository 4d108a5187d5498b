package directory

import (
	"slices"
	"testing"
	"testing/quick"

	"coma/internal/proto"
)

func TestHomeDistribution(t *testing.T) {
	d := New(16)
	counts := make(map[proto.NodeID]int)
	for i := proto.ItemID(0); i < 1600; i++ {
		counts[d.Home(i)]++
	}
	if len(counts) != 16 {
		t.Fatalf("homes used = %d, want 16", len(counts))
	}
	for n, c := range counts {
		if c != 100 {
			t.Fatalf("node %v homes %d items, want 100", n, c)
		}
	}
}

func TestHomeRemapsOnFailure(t *testing.T) {
	d := New(4)
	item := proto.ItemID(1)
	if d.Home(item) != 1 {
		t.Fatalf("home = %v, want 1", d.Home(item))
	}
	d.SetAlive(1, false)
	h := d.Home(item)
	if h == 1 {
		t.Fatal("home still on dead node")
	}
	if !d.Alive(h) {
		t.Fatal("home mapped to dead node")
	}
	if d.AliveCount() != 3 {
		t.Fatalf("alive = %d", d.AliveCount())
	}
	// Rejoin (transient failure) restores the original mapping.
	d.SetAlive(1, true)
	if d.Home(item) != 1 {
		t.Fatal("home did not return after rejoin")
	}
}

func TestNextAliveSkipsDead(t *testing.T) {
	d := New(5)
	d.SetAlive(2, false)
	if got := d.NextAlive(1); got != 3 {
		t.Fatalf("NextAlive(1) = %v, want 3 (skipping dead 2)", got)
	}
	if got := d.NextAlive(4); got != 0 {
		t.Fatalf("NextAlive(4) = %v, want 0 (wrap)", got)
	}
	// Successor of a dead node is well defined (ring reconfiguration).
	if got := d.NextAlive(2); got != 3 {
		t.Fatalf("NextAlive(dead 2) = %v, want 3", got)
	}
}

func TestRingVisitsAllAliveNodes(t *testing.T) {
	d := New(9)
	d.SetAlive(4, false)
	seen := map[proto.NodeID]bool{}
	n := proto.NodeID(0)
	for i := 0; i < d.AliveCount(); i++ {
		seen[n] = true
		n = d.NextAlive(n)
	}
	if len(seen) != 8 {
		t.Fatalf("ring visited %d nodes, want 8", len(seen))
	}
	if seen[4] {
		t.Fatal("ring visited dead node")
	}
	if n != 0 {
		t.Fatalf("ring did not close: back at %v", n)
	}
}

func TestAnchors(t *testing.T) {
	d := New(16)
	a := d.Anchors(14, 4)
	want := []proto.NodeID{14, 15, 0, 1}
	if len(a) != 4 {
		t.Fatalf("anchors = %v", a)
	}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("anchors = %v, want %v", a, want)
		}
	}
	// With a dead toucher the anchor set shifts to live nodes.
	d.SetAlive(14, false)
	a = d.Anchors(14, 4)
	for _, n := range a {
		if !d.Alive(n) {
			t.Fatalf("dead anchor %v in %v", n, a)
		}
	}
	// More anchors than nodes clamps.
	small := New(3)
	if got := small.Anchors(0, 4); len(got) != 3 {
		t.Fatalf("clamped anchors = %v", got)
	}
}

func TestEnsureAndDrop(t *testing.T) {
	d := New(8)
	if d.Lookup(5) != nil {
		t.Fatal("entry exists before Ensure")
	}
	e := d.Ensure(5)
	if e.Owner != proto.None {
		t.Fatalf("fresh owner = %v", e.Owner)
	}
	e.Owner = 3
	if d.Ensure(5).Owner != 3 {
		t.Fatal("Ensure did not return the existing entry")
	}
	if d.Items() != 1 {
		t.Fatalf("items = %d", d.Items())
	}
	d.Drop(5)
	if d.Lookup(5) != nil || d.Items() != 0 {
		t.Fatal("Drop left the entry")
	}
	d.Drop(5) // dropping an absent item is a no-op
	if d.Items() != 0 {
		t.Fatalf("items = %d after a second Drop", d.Items())
	}
	if e := d.Ensure(5); e.Owner != proto.None || e.Sharers.Len() != 0 || d.Items() != 1 {
		t.Fatalf("re-inserted entry = %+v with %d items, want a fresh one", e, d.Items())
	}
}

func TestForEachAscending(t *testing.T) {
	d := New(56)
	// The first shared item, a private-region item and the last item of
	// the 56th processor's private region, inserted out of order.
	items := []proto.ItemID{1<<23 + 56*131456 - 1, 3000, 0, 1 << 23, 4}
	for _, item := range items {
		d.Ensure(item).Owner = proto.NodeID(item % 56)
	}
	d.Drop(3000)
	var got []proto.ItemID
	d.ForEach(func(item proto.ItemID, e *Entry) {
		if e.Owner != proto.NodeID(item%56) {
			t.Fatalf("item %d has owner %v", item, e.Owner)
		}
		got = append(got, item)
	})
	want := []proto.ItemID{0, 4, 1 << 23, 1<<23 + 56*131456 - 1}
	if !slices.Equal(got, want) || d.Items() != len(want) {
		t.Fatalf("ForEach visited %v (%d items), want %v", got, d.Items(), want)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(70) // spans two words
	if b.Len() != 0 || b.First() != proto.None {
		t.Fatal("fresh bitset not empty")
	}
	b.Add(0)
	b.Add(69)
	b.Add(64)
	if !b.Contains(69) || !b.Contains(0) || b.Contains(1) {
		t.Fatal("membership wrong")
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d", b.Len())
	}
	var order []proto.NodeID
	b.ForEach(func(n proto.NodeID) { order = append(order, n) })
	if len(order) != 3 || order[0] != 0 || order[1] != 64 || order[2] != 69 {
		t.Fatalf("order = %v", order)
	}
	if b.First() != 0 {
		t.Fatalf("first = %v", b.First())
	}
	b.Remove(0)
	if b.Contains(0) || b.Len() != 2 {
		t.Fatal("remove failed")
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatal("clear failed")
	}
}

func TestBitsetMembersAndForEachUntil(t *testing.T) {
	b := NewBitset(70)
	if got := b.Members(); len(got) != 0 {
		t.Fatalf("empty Members = %v", got)
	}
	if !b.ForEachUntil(func(proto.NodeID) bool { t.Fatal("visited empty set"); return false }) {
		t.Fatal("empty walk did not complete")
	}
	for _, n := range []proto.NodeID{5, 0, 69, 64} {
		b.Add(n)
	}
	got := b.Members()
	want := []proto.NodeID{0, 5, 64, 69}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
	var visited []proto.NodeID
	done := b.ForEachUntil(func(n proto.NodeID) bool {
		visited = append(visited, n)
		return n < 5 // stop after visiting 5
	})
	if done || len(visited) != 2 || visited[0] != 0 || visited[1] != 5 {
		t.Fatalf("short-circuit walk: done=%v visited=%v", done, visited)
	}
	visited = nil
	if !b.ForEachUntil(func(n proto.NodeID) bool { visited = append(visited, n); return true }) {
		t.Fatal("full walk did not report completion")
	}
	if len(visited) != 4 {
		t.Fatalf("full walk visited %v", visited)
	}
}

func TestBitsetOutOfRangePanics(t *testing.T) {
	b := NewBitset(4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Add did not panic")
		}
	}()
	b.Add(4)
}

func TestBitsetProperty(t *testing.T) {
	f := func(adds []uint8) bool {
		b := NewBitset(64)
		ref := map[proto.NodeID]bool{}
		for _, a := range adds {
			n := proto.NodeID(a % 64)
			if a%2 == 0 {
				b.Add(n)
				ref[n] = true
			} else {
				b.Remove(n)
				delete(ref, n)
			}
		}
		if b.Len() != len(ref) {
			return false
		}
		ok := true
		b.ForEach(func(n proto.NodeID) {
			if !ref[n] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
