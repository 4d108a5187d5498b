package proto

import (
	"cmp"
	"fmt"
	"strings"
)

// This file is the single definition of the ECP's recovery-data
// invariants. Every gate — the live machine (core.Check), the bus
// machine (snoop), the trace replay (txnview) and the model checker —
// builds a view of the copies from its own source, asks Point.Check
// which invariants it breaks, and renders the answer in its own
// diagnostic format. The protocol point, not the gate, selects the set.

// Copy is one non-Invalid copy of an item in an invariant view. Partner
// is the node of the other copy of a recovery pair; only views built
// from attraction memories carry it.
type Copy struct {
	Item    ItemID
	Node    NodeID
	State   State
	Partner NodeID
}

// Invariant names one recovery-data invariant.
type Invariant uint8

const (
	SingleMaster        Invariant = iota // at most one owner-state copy
	ExclusiveAlone                       // an Exclusive copy is the only current copy
	UniqueRecoveryCopy                   // each recovery-copy state held at most once
	CompletePairs                        // each copy of a pair flavour has its partner state
	OneGeneration                        // never both Shared-CK and Inv-CK copies
	MutualPartners                       // the two copies of a pair point at each other
	NoStrayPreCommit                     // no Pre-Commit copy outside an establishment
	CommitAtomicity                      // at commit, no Pre-Commit and no stale Inv-CK copy
	RollbackPersistence                  // a rollback leaves exactly one owner copy

	numInvariants
)

var invariantNames = [numInvariants]string{
	"single master", "exclusive alone", "unique recovery copy",
	"complete pairs", "one generation", "mutual partners",
	"no stray pre-commit", "commit atomicity", "rollback persistence",
}

func (inv Invariant) String() string {
	if inv < numInvariants {
		return invariantNames[inv]
	}
	return fmt.Sprintf("Invariant(%d)", uint8(inv))
}

// Point is a protocol point at which a gate evaluates the invariants.
type Point uint8

const (
	// AtDrained: no transaction in flight (round quiesce, checkpoint
	// round end, trace end), or a model state inside an establishment.
	AtDrained Point = iota
	// AtSteady: a model state outside any establishment.
	AtSteady
	// AtCommit: the commit instant, after every commit scan.
	AtCommit
	// AtRollback: the end of a rollback, after reconfiguration.
	AtRollback
)

// evaluates is the point table. The structural set (SingleMaster
// through MutualPartners) holds at every point.
func (at Point) evaluates(inv Invariant) bool {
	return inv <= MutualPartners ||
		inv == NoStrayPreCommit && (at == AtSteady || at == AtRollback) ||
		inv == CommitAtomicity && at == AtCommit ||
		inv == RollbackPersistence && at == AtRollback
}

// Violation is one invariant breach on one item. Gates prefix its
// Error text with their own context (event, cycle, model state).
type Violation struct {
	Item   ItemID
	Inv    Invariant
	Detail string // what breaks it, then the item's copies
}

func (v Violation) Error() string {
	return fmt.Sprintf("item %d: %v: %s", v.Item, v.Inv, v.Detail)
}

// CompareCopies orders copies by item, then node: the order Check
// requires.
func CompareCopies(a, b Copy) int {
	if c := cmp.Compare(a.Item, b.Item); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

// Check evaluates at's invariants on the copies in cs, which may span
// any number of items and must be sorted by CompareCopies, and appends
// every breach to dst, items in ascending order. partners says whether
// cs carries partner pointers; without them MutualPartners is skipped.
func (at Point) Check(dst []Violation, cs []Copy, partners bool) []Violation {
	for len(cs) > 0 {
		n := 1
		for n < len(cs) && cs[n].Item == cs[0].Item {
			n++
		}
		v := itemView{cs: cs[:n]}
		for _, c := range v.cs {
			v.count[c.State]++
			if c.State.Owner() {
				v.owners++
			}
			if c.State.Current() {
				v.current++
			}
		}
		for inv := range numInvariants {
			if !at.evaluates(inv) || (inv == MutualPartners && !partners) {
				continue
			}
			if d := v.breach(inv); d != "" {
				dst = append(dst, Violation{Item: cs[0].Item, Inv: inv, Detail: d + "; copies " + v.list()})
			}
		}
		cs = cs[n:]
	}
	return dst
}

// itemView is one item's copies with their per-state tallies.
type itemView struct {
	cs              []Copy
	count           [NumStates]int
	owners, current int
}

// breach evaluates one invariant, returning "" when it holds or what
// breaks it.
func (v *itemView) breach(inv Invariant) string {
	pre := v.count[PreCommit1] + v.count[PreCommit2]
	switch inv {
	case SingleMaster:
		if v.owners > 1 {
			return fmt.Sprintf("%d owner copies", v.owners)
		}
	case ExclusiveAlone:
		if v.count[Exclusive] > 0 && v.current > 1 {
			return fmt.Sprintf("Exclusive with %d current copies", v.current)
		}
	case UniqueRecoveryCopy:
		for _, c := range v.cs {
			if c.State.Recovery() && v.count[c.State] > 1 {
				return fmt.Sprintf("%d %v copies", v.count[c.State], c.State)
			}
		}
	case CompletePairs:
		for _, c := range v.cs {
			if c.State.Recovery() && v.count[c.State.Partner()] == 0 {
				return fmt.Sprintf("broken recovery pair: %v on %v has no %v", c.State, c.Node, c.State.Partner())
			}
		}
	case OneGeneration:
		if v.count[SharedCK1]+v.count[SharedCK2] > 0 && v.count[InvCK1]+v.count[InvCK2] > 0 {
			return "both Shared-CK and Inv-CK copies"
		}
	case MutualPartners:
		for _, a := range v.cs {
			for _, b := range v.cs {
				if a.State.Recovery() && b.State == a.State.Partner() &&
					v.count[a.State] == 1 && v.count[b.State] == 1 && a.Partner != b.Node {
					return fmt.Sprintf("%v on %v has partner pointer %v, want %v", a.State, a.Node, a.Partner, b.Node)
				}
			}
		}
	case NoStrayPreCommit:
		if pre > 0 {
			return "Pre-Commit copy outside an establishment"
		}
	case CommitAtomicity:
		if pre+v.count[InvCK1]+v.count[InvCK2] > 0 {
			return "Pre-Commit or stale Inv-CK copy survives the commit"
		}
	case RollbackPersistence:
		if v.owners != 1 {
			return fmt.Sprintf("rollback left %d owner copies, want 1", v.owners)
		}
	}
	return ""
}

// list renders the item's copies ("n0 Exclusive, n3 Shared").
func (v *itemView) list() string {
	var sb strings.Builder
	for i, c := range v.cs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%v %v", c.Node, c.State)
	}
	return sb.String()
}
