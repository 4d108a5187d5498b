package proto

import "iter"

// tableLeafBits sets the leaf size of an ItemTable: 2^tableLeafBits
// consecutive items share one leaf.
const tableLeafBits = 10

const (
	tableLeafLen  = 1 << tableLeafBits
	tableLeafMask = tableLeafLen - 1
)

// ItemTable is a sparse array indexed by ItemID: a top level indexed by
// item >> tableLeafBits whose leaves hold 2^tableLeafBits consecutive
// slots and are allocated on first write. Item IDs are sparse (each
// processor's private region sits far from the shared one), so a flat
// slice would be mostly empty, while a lookup here costs two indexed
// loads and no hashing. The zero value is an empty table; a slot never
// written reads as the zero T.
type ItemTable[T any] struct {
	top []*[tableLeafLen]T
}

// Get returns the item's slot, or nil when its leaf was never allocated.
// It never allocates, and a negative item (NoItem) returns nil.
func (t *ItemTable[T]) Get(item ItemID) *T {
	if item < 0 || int(item>>tableLeafBits) >= len(t.top) {
		return nil
	}
	leaf := t.top[item>>tableLeafBits]
	if leaf == nil {
		return nil
	}
	return &leaf[item&tableLeafMask]
}

// At returns the item's slot, allocating its leaf on first use. The item
// must not be negative.
func (t *ItemTable[T]) At(item ItemID) *T {
	if item < 0 {
		panic("proto: ItemTable.At of a negative item")
	}
	i := int(item >> tableLeafBits)
	if i >= len(t.top) {
		t.top = append(t.top, make([]*[tableLeafLen]T, i+1-len(t.top))...)
	}
	leaf := t.top[i]
	if leaf == nil {
		leaf = new([tableLeafLen]T)
		t.top[i] = leaf
	}
	return &leaf[item&tableLeafMask]
}

// All yields every slot of every allocated leaf in ascending item order,
// including slots never written (zero T); callers skip the ones they
// treat as absent.
func (t *ItemTable[T]) All() iter.Seq2[ItemID, *T] {
	return func(yield func(ItemID, *T) bool) {
		for i, leaf := range t.top {
			if leaf == nil {
				continue
			}
			base := ItemID(i << tableLeafBits)
			for j := range leaf {
				if !yield(base+ItemID(j), &leaf[j]) {
					return
				}
			}
		}
	}
}
