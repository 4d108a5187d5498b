package machine

import (
	"iter"

	"coma/internal/proto"
)

// valueOracle is the machine's model of memory: the last value written to
// every item, plus an undo log that restores the values of the last
// committed recovery point. A value of 0 means "never written": store
// values are node<<48 | seq with seq >= 1, so no store writes 0.
//
// A commit is O(1) and a rollback is O(items written since the last
// commit or rollback): the first write to an item after either saves its
// previous value and logs the item.
type valueOracle struct {
	items proto.ItemTable[oracleItem]
	// epoch advances at every commit and rollback. It starts at 1 so that
	// an item never written (epoch 0) is not mistaken for one written in
	// the current epoch.
	epoch uint32
	undo  []proto.ItemID
}

type oracleItem struct {
	value uint64
	// saved is the value at the start of the epoch recorded in epoch;
	// while that is the oracle's current epoch it is the committed value.
	saved uint64
	epoch uint32
}

func newValueOracle() *valueOracle { return &valueOracle{epoch: 1} }

func (o *valueOracle) write(item proto.ItemID, value uint64) {
	e := o.items.At(item)
	if e.epoch != o.epoch {
		e.epoch = o.epoch
		e.saved = e.value
		o.undo = append(o.undo, item)
	}
	e.value = value
}

// value returns the item's last written value (0 if never written).
func (o *valueOracle) value(item proto.ItemID) uint64 {
	if e := o.items.Get(item); e != nil {
		return e.value
	}
	return 0
}

// committed returns the item's value at the last commit (0 if it had
// none then).
func (o *valueOracle) committed(item proto.ItemID) uint64 {
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

// commit makes the current values the ones a rollback restores.
func (o *valueOracle) commit() {
	o.epoch++
	o.undo = o.undo[:0]
}

// rollback restores the values of the last commit.
func (o *valueOracle) rollback() {
	for _, item := range o.undo {
		e := o.items.Get(item)
		e.value = e.saved
	}
	o.commit()
}

// all yields every written item and its value in ascending item order.
func (o *valueOracle) all() iter.Seq2[proto.ItemID, uint64] {
	return func(yield func(proto.ItemID, uint64) bool) {
		for item, e := range o.items.All() {
			if e.value != 0 && !yield(item, e.value) {
				return
			}
		}
	}
}
