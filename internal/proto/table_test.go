package proto

import (
	"slices"
	"testing"
)

// Items at the edges of the simulated address space: the first shared
// item, the first private item (byte address 1<<30 at 128-byte items),
// and the last item of the 56th processor's private region (regions are
// 131,456 items apart), the largest machine of the paper's sweeps.
var tableEdgeItems = []ItemID{0, 1 << 23, 1<<23 + 56*131456 - 1}

func TestItemTableEdgeItems(t *testing.T) {
	var tab ItemTable[uint64]
	for _, item := range tableEdgeItems {
		if p := tab.Get(item); p != nil {
			t.Fatalf("Get(%d) = %v before any write", item, *p)
		}
	}
	for i, item := range tableEdgeItems {
		*tab.At(item) = uint64(i + 1)
	}
	for i, item := range tableEdgeItems {
		if p := tab.Get(item); p == nil || *p != uint64(i+1) {
			t.Fatalf("Get(%d) = %v, want %d", item, p, i+1)
		}
	}
	// A neighbour in an allocated leaf reads as the zero value.
	if p := tab.Get(1<<23 + 1); p == nil || *p != 0 {
		t.Fatalf("neighbour of a written item = %v, want a zero slot", p)
	}
	if tab.Get(NoItem) != nil {
		t.Fatal("Get(NoItem) returned a slot")
	}
}

func TestItemTableAbsentLookupDoesNotAllocate(t *testing.T) {
	var tab ItemTable[*int]
	*tab.At(5) = new(int)
	allocs := testing.AllocsPerRun(100, func() {
		for _, item := range []ItemID{1 << 23, 1<<23 + 56*131456 - 1, NoItem, 5000} {
			if tab.Get(item) != nil {
				t.Fatalf("Get(%d) found a slot", item)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("absent lookups allocated %v times per run", allocs)
	}
	if len(tab.top) != 1 {
		t.Fatalf("absent lookups grew the top level to %d", len(tab.top))
	}
}

func TestItemTableAllAscending(t *testing.T) {
	var tab ItemTable[int]
	written := []ItemID{1<<23 + 56*131456 - 1, 7, 1 << 23, 3000, 0}
	for _, item := range written {
		*tab.At(item) = int(item) + 1
	}
	var got []ItemID
	prev := ItemID(-1)
	for item, v := range tab.All() {
		if item <= prev {
			t.Fatalf("All visited %d after %d", item, prev)
		}
		prev = item
		if *v != 0 {
			got = append(got, item)
			if *v != int(item)+1 {
				t.Fatalf("item %d holds %d", item, *v)
			}
		}
	}
	want := []ItemID{0, 7, 3000, 1 << 23, 1<<23 + 56*131456 - 1}
	if !slices.Equal(got, want) {
		t.Fatalf("All yielded written items %v, want %v", got, want)
	}
}

func TestItemTableAllStopsEarly(t *testing.T) {
	var tab ItemTable[int]
	*tab.At(0) = 1
	n := 0
	for range tab.All() {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("All yielded %d slots after break", n)
	}
}
