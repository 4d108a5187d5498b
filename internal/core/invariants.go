package core

import (
	"fmt"
	"slices"

	"coma/internal/coherence"
	"coma/internal/proto"
)

// Check evaluates the recovery-data invariants of protocol point at
// (proto/invariant.go) on the live nodes' attraction memories, then
// checks that the directory agrees with the copies: its owner is the
// item's owner copy and its sharing set is exactly the Shared holders.
// Items are judged in ascending order; it returns the first violation,
// or nil.
func Check(coh *coherence.Engine, at proto.Point) error {
	dir := coh.Directory()
	var cs []proto.Copy
	for _, n := range dir.AliveNodes() {
		cs = coh.AM(n).AppendCopies(cs)
	}
	slices.SortFunc(cs, proto.CompareCopies)
	if vs := at.Check(nil, cs, true); len(vs) > 0 {
		return vs[0]
	}
	for i, c := range cs {
		e := dir.Lookup(c.Item)
		switch {
		case c.State.Owner() && e == nil:
			return fmt.Errorf("item %d has owner %v but no directory entry", c.Item, c.Node)
		case c.State.Owner() && e.Owner != c.Node:
			return fmt.Errorf("item %d: directory owner %v, actual %v", c.Item, e.Owner, c.Node)
		case c.State == proto.Shared && e != nil && !e.Sharers.Contains(c.Node):
			return fmt.Errorf("item %d: node %v holds Shared but is not in the sharing set", c.Item, c.Node)
		}
		if e == nil || (i > 0 && cs[i-1].Item == c.Item) {
			continue
		}
		for _, s := range e.Sharers.Members() {
			if !dir.Alive(s) || coh.AM(s).State(c.Item) != proto.Shared {
				return fmt.Errorf("item %d: node %v is in the sharing set but holds no Shared copy", c.Item, s)
			}
		}
	}
	return nil
}
