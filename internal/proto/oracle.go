package proto

import "iter"

// ValueOracle is a machine's model of memory, against which the values
// its processors read are checked: the last value written to every
// item, plus an undo log that restores the values of the last committed
// recovery point. Both the mesh and the bus machine use it. A value of 0
// means "never written": store values are node<<48 | seq with seq >= 1,
// so no store writes 0.
//
// A commit is O(1) and a rollback is O(items written since the last
// commit or rollback): the first write to an item after either saves its
// previous value and logs the item.
type ValueOracle struct {
	items ItemTable[oracleItem]
	// epoch advances at every commit and rollback. It starts at 1 so that
	// an item never written (epoch 0) is not mistaken for one written in
	// the current epoch.
	epoch uint32
	undo  []ItemID
}

type oracleItem struct {
	value uint64
	// saved is the value at the start of the epoch recorded in epoch;
	// while that is the oracle's current epoch it is the committed value.
	saved uint64
	epoch uint32
}

// NewValueOracle returns an oracle in which no item was ever written.
func NewValueOracle() *ValueOracle { return &ValueOracle{epoch: 1} }

// Write records a store of value to item.
func (o *ValueOracle) Write(item ItemID, value uint64) {
	e := o.items.At(item)
	if e.epoch != o.epoch {
		e.epoch = o.epoch
		e.saved = e.value
		o.undo = append(o.undo, item)
	}
	e.value = value
}

// Value returns the item's last written value (0 if never written).
func (o *ValueOracle) Value(item ItemID) uint64 {
	if e := o.items.Get(item); e != nil {
		return e.value
	}
	return 0
}

// Committed returns the item's value at the last commit (0 if it had
// none then).
func (o *ValueOracle) Committed(item ItemID) uint64 {
	e := o.items.Get(item)
	switch {
	case e == nil:
		return 0
	case e.epoch == o.epoch:
		return e.saved
	default:
		return e.value
	}
}

// Commit makes the current values the ones a rollback restores.
func (o *ValueOracle) Commit() {
	o.epoch++
	o.undo = o.undo[:0]
}

// Rollback restores the values of the last commit.
func (o *ValueOracle) Rollback() {
	for _, item := range o.undo {
		e := o.items.Get(item)
		e.value = e.saved
	}
	o.Commit()
}

// All yields every written item and its value in ascending item order.
func (o *ValueOracle) All() iter.Seq2[ItemID, uint64] {
	return func(yield func(ItemID, uint64) bool) {
		for item, e := range o.items.All() {
			if e.value != 0 && !yield(item, e.value) {
				return
			}
		}
	}
}
