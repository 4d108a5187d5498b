// Package am models a node's Attraction Memory: the per-node memory of a
// COMA, organised as a large set-associative cache of the shared address
// space. Allocation happens at page granularity (16 KB pages, 16-way
// associative in the paper's configuration) while coherence state, data
// and recovery-pair bookkeeping are kept per item (128 bytes).
//
// Frames can be marked irreplaceable ("anchor" frames): the paper
// statically allocates four irreplaceable pages per data page so that
// injected copies and recovery replication always find room.
package am

import (
	"fmt"
	"math/bits"
	"sort"

	"coma/internal/config"
	"coma/internal/proto"
)

// Slot is the per-item metadata held in a frame. The fields are ordered
// widest first so that a slot packs into 16 bytes.
type Slot struct {
	// Value is the simulator's model of the item's 128 bytes: a 64-bit
	// stamp checked against the machine oracle.
	Value uint64
	// Partner is the node holding the other copy of a recovery pair;
	// meaningful only while State.Recovery() is true.
	Partner proto.NodeID
	State   proto.State
}

// emptySlot is the content of every slot of a freshly allocated frame.
var emptySlot = Slot{State: proto.Invalid, Partner: proto.None}

// frame is one page frame; its page is the matching entry of AM.tags.
type frame struct {
	irreplaceable bool
	// evicting marks a frame whose pinned items are being injected away
	// by an in-flight replacement; it must not accept new copies.
	evicting bool
	lastUse  int64
	// slots is made by the way's first AllocFrame and kept across
	// DropFrame and Clear, so a run backs only the ways it uses and a
	// reused way allocates nothing.
	slots []Slot
	// modified counts slots in Exclusive or MasterShared state; frames
	// with modified > 0 form the paper's "modified-item tree", letting
	// the create phase find the next item to replicate in O(frames).
	modified int
}

// Stats counts attraction-memory events.
type Stats struct {
	// FramesAllocated is the cumulative number of frame allocations
	// (never decremented; Fig. 7 uses the peak concurrent value).
	FramesAllocated int64
	FramesDropped   int64
	PeakFrames      int
}

// AM is one node's attraction memory.
type AM struct {
	arch config.Arch
	node proto.NodeID
	ways int
	// setMask selects a page's set (Validate makes the set count a power
	// of two); pageShift and itemMask split an item into its page and
	// its index in the page.
	setMask   uint32
	pageShift uint
	itemMask  proto.ItemID
	// tags holds the page in every way, one row of ways per set
	// (set s, way w at s*ways+w), NoPage marking a free way. A lookup
	// scans the row of page % sets, as the hardware compares the tags
	// of one set. frames is laid out the same way.
	tags   []proto.PageID
	frames []frame

	allocated int
	stats     Stats

	// stateHook, when set, is called on every state change made through
	// Set/SetState (the protocol engine's choke points). Bulk scans via
	// ForEachAllocated deliberately bypass it: the commit/recovery scans
	// flip every slot at once and are observed as phase spans instead.
	stateHook func(item proto.ItemID, from, to proto.State)
}

// SetStateHook installs the state-transition hook (nil disables it).
func (a *AM) SetStateHook(fn func(item proto.ItemID, from, to proto.State)) {
	a.stateHook = fn
}

// New builds an empty attraction memory for the node. The architecture
// must pass Validate. Its allocations do not depend on the frame count:
// no frame has slots until it is first allocated.
func New(arch config.Arch, node proto.NodeID) *AM {
	n := arch.AMSets() * arch.AMWays
	a := &AM{
		arch:      arch,
		node:      node,
		ways:      arch.AMWays,
		setMask:   uint32(arch.AMSets() - 1),
		pageShift: uint(bits.TrailingZeros(uint(arch.ItemsPerPage()))),
		itemMask:  proto.ItemID(arch.ItemsPerPage() - 1),
		tags:      make([]proto.PageID, n),
		frames:    make([]frame, n),
	}
	for i := range a.tags {
		a.tags[i] = proto.NoPage
	}
	return a
}

// Node returns the owning node.
func (a *AM) Node() proto.NodeID { return a.node }

// Stats returns a copy of the accumulated statistics.
func (a *AM) Stats() Stats { return a.stats }

// AllocatedFrames returns the number of currently allocated page frames.
func (a *AM) AllocatedFrames() int { return a.allocated }

// setRow returns the index of way 0 of the page's set in tags/frames.
func (a *AM) setRow(page proto.PageID) int {
	return int(uint32(page)&a.setMask) * a.ways
}

// way returns the page's index in tags/frames, or -1 when the page is
// not allocated (always for a negative page such as NoPage).
func (a *AM) way(page proto.PageID) int {
	if page < 0 {
		return -1
	}
	row := a.setRow(page)
	for w, tag := range a.tags[row : row+a.ways] {
		if tag == page {
			return row + w
		}
	}
	return -1
}

// lookup returns the page's frame, or nil when it is not allocated.
func (a *AM) lookup(page proto.PageID) *frame {
	if i := a.way(page); i >= 0 {
		return &a.frames[i]
	}
	return nil
}

// slotFor returns the item's frame and slot, or nils when its page is
// not allocated. It splits the item as Arch.PageOf and
// Arch.ItemIndexInPage do, with a shift and a mask.
func (a *AM) slotFor(item proto.ItemID) (*frame, *Slot) {
	f := a.lookup(proto.PageID(item >> a.pageShift))
	if f == nil {
		return nil, nil
	}
	return f, &f.slots[item&a.itemMask]
}

// HasFrame reports whether the page is allocated.
func (a *AM) HasFrame(page proto.PageID) bool { return a.lookup(page) != nil }

// Irreplaceable reports whether the page's frame is an anchor frame.
func (a *AM) Irreplaceable(page proto.PageID) bool {
	f := a.lookup(page)
	return f != nil && f.irreplaceable
}

// Evicting reports whether the page's frame is mid-replacement.
func (a *AM) Evicting(page proto.PageID) bool {
	f := a.lookup(page)
	return f != nil && f.evicting
}

// SetEvicting marks or unmarks a frame as mid-replacement. The frame
// must be allocated.
func (a *AM) SetEvicting(page proto.PageID, v bool) {
	f := a.lookup(page)
	if f == nil {
		panic(fmt.Sprintf("am: SetEvicting(%d) on node %v without a frame", page, a.node))
	}
	f.evicting = v
}

// Touch updates the frame's LRU stamp.
func (a *AM) Touch(page proto.PageID, now int64) {
	if f := a.lookup(page); f != nil {
		f.lastUse = now
	}
}

// State returns the item's coherence state (Invalid when the page is not
// allocated).
func (a *AM) State(item proto.ItemID) proto.State {
	_, s := a.slotFor(item)
	if s == nil {
		return proto.Invalid
	}
	return s.State
}

// Slot returns a copy of the item's slot (zero Slot when unallocated).
func (a *AM) Slot(item proto.ItemID) Slot {
	_, s := a.slotFor(item)
	if s == nil {
		return emptySlot
	}
	return *s
}

// Set installs state, value and partner for an item. The page frame must
// be allocated. Modified-item bookkeeping is maintained.
func (a *AM) Set(item proto.ItemID, slot Slot) {
	f, old := a.slotFor(item)
	if f == nil {
		panic(fmt.Sprintf("am: Set(%d) on node %v without a frame for page %d",
			item, a.node, a.arch.PageOf(item)))
	}
	if old.State.Modified() {
		f.modified--
	}
	if slot.State.Modified() {
		f.modified++
	}
	if a.stateHook != nil && old.State != slot.State {
		a.stateHook(item, old.State, slot.State)
	}
	*old = slot
}

// SetState changes only the coherence state, preserving value and partner.
func (a *AM) SetState(item proto.ItemID, st proto.State) {
	f, s := a.slotFor(item)
	if f == nil {
		panic(fmt.Sprintf("am: SetState(%d) on node %v without a frame", item, a.node))
	}
	if s.State.Modified() {
		f.modified--
	}
	if st.Modified() {
		f.modified++
	}
	if a.stateHook != nil && s.State != st {
		a.stateHook(item, s.State, st)
	}
	s.State = st
}

// SetPartner records the recovery-pair partner for an item.
func (a *AM) SetPartner(item proto.ItemID, partner proto.NodeID) {
	_, s := a.slotFor(item)
	if s == nil {
		panic(fmt.Sprintf("am: SetPartner(%d) on node %v without a frame", item, a.node))
	}
	s.Partner = partner
}

// FreeWay reports whether the page's set has an unallocated way.
func (a *AM) FreeWay(page proto.PageID) bool {
	row := a.setRow(page)
	for _, tag := range a.tags[row : row+a.ways] {
		if tag == proto.NoPage {
			return true
		}
	}
	return false
}

// AllocFrame allocates a frame for the page in a free way. It panics if
// the page is already allocated or no way is free (callers must first
// evict via VictimPage/DropFrame).
func (a *AM) AllocFrame(page proto.PageID, irreplaceable bool, now int64) {
	if a.lookup(page) != nil {
		panic(fmt.Sprintf("am: page %d already allocated on node %v", page, a.node))
	}
	row := a.setRow(page)
	for i := row; i < row+a.ways; i++ {
		if a.tags[i] != proto.NoPage {
			continue
		}
		a.tags[i] = page
		f := &a.frames[i]
		f.irreplaceable = irreplaceable
		f.lastUse = now
		f.modified = 0
		if f.slots == nil {
			f.slots = make([]Slot, a.itemMask+1)
		}
		for i := range f.slots {
			f.slots[i] = emptySlot
		}
		a.allocated++
		a.stats.FramesAllocated++
		if a.allocated > a.stats.PeakFrames {
			a.stats.PeakFrames = a.allocated
		}
		return
	}
	panic(fmt.Sprintf("am: AllocFrame(%d) on node %v with no free way", page, a.node))
}

// MarkIrreplaceable pins an already-allocated frame (a page that becomes
// an anchor after the fact, e.g. during reconfiguration).
func (a *AM) MarkIrreplaceable(page proto.PageID) {
	f := a.lookup(page)
	if f == nil {
		panic(fmt.Sprintf("am: MarkIrreplaceable(%d) on node %v without a frame", page, a.node))
	}
	f.irreplaceable = true
}

// VictimPage picks the least-recently-used replaceable frame in the
// target page's set. ok is false when every way is irreplaceable.
func (a *AM) VictimPage(page proto.PageID) (victim proto.PageID, ok bool) {
	v := a.VictimPages(page)
	if len(v) == 0 {
		return proto.NoPage, false
	}
	return v[0], true
}

// VictimPages returns every replaceable (not irreplaceable, not already
// mid-eviction) frame in the target page's set, least recently used
// first, so callers can skip candidates busy with in-flight
// transactions.
func (a *AM) VictimPages(page proto.PageID) []proto.PageID {
	row := a.setRow(page)
	cand := make([]int, 0, a.ways)
	for i := row; i < row+a.ways; i++ {
		f := &a.frames[i]
		if a.tags[i] == proto.NoPage || f.irreplaceable || f.evicting {
			continue
		}
		cand = append(cand, i)
	}
	sort.Slice(cand, func(i, j int) bool {
		fi, fj := &a.frames[cand[i]], &a.frames[cand[j]]
		if fi.lastUse != fj.lastUse {
			return fi.lastUse < fj.lastUse
		}
		return a.tags[cand[i]] < a.tags[cand[j]]
	})
	out := make([]proto.PageID, len(cand))
	for i, c := range cand {
		out[i] = a.tags[c]
	}
	return out
}

// PinnedItems returns the items of a frame whose state forbids silent
// replacement (masters and recovery copies): the caller must inject them
// before DropFrame.
func (a *AM) PinnedItems(page proto.PageID) []proto.ItemID {
	f := a.lookup(page)
	if f == nil {
		return nil
	}
	var out []proto.ItemID
	first := a.arch.FirstItem(page)
	for i := range f.slots {
		if !f.slots[i].State.Replaceable() {
			out = append(out, first+proto.ItemID(i))
		}
	}
	return out
}

// DropFrame deallocates the page's frame. Every item must be in a
// replaceable state (Invalid or Shared); it panics otherwise.
func (a *AM) DropFrame(page proto.PageID) {
	i := a.way(page)
	if i < 0 {
		panic(fmt.Sprintf("am: DropFrame(%d) on node %v without a frame", page, a.node))
	}
	f := &a.frames[i]
	for i := range f.slots {
		if !f.slots[i].State.Replaceable() {
			panic(fmt.Sprintf("am: DropFrame(%d) on node %v would lose item %d in %v",
				page, a.node, int(a.arch.FirstItem(page))+i, f.slots[i].State))
		}
	}
	a.tags[i] = proto.NoPage
	f.irreplaceable = false
	f.evicting = false
	a.allocated--
	a.stats.FramesDropped++
}

// ModifiedItems appends to dst the items currently in a Modified state
// (Exclusive or MasterShared) — the work list of the checkpoint create
// phase. The modified-item counters make the scan proportional to the
// number of frames plus the number of modified items, mirroring the
// paper's tree of modified-line indicators.
func (a *AM) ModifiedItems(dst []proto.ItemID) []proto.ItemID {
	for fi, page := range a.tags {
		f := &a.frames[fi]
		if page == proto.NoPage || f.modified == 0 {
			continue
		}
		first := a.arch.FirstItem(page)
		for i, s := range f.slots {
			if s.State.Modified() {
				dst = append(dst, first+proto.ItemID(i))
			}
		}
	}
	return dst
}

// ForEachAllocated visits every slot of every allocated frame in
// deterministic order. fn may mutate state via the AM's setters but must
// not allocate or drop frames.
func (a *AM) ForEachAllocated(fn func(item proto.ItemID, slot *Slot)) {
	for fi, page := range a.tags {
		if page == proto.NoPage {
			continue
		}
		f := &a.frames[fi]
		first := a.arch.FirstItem(page)
		for i := range f.slots {
			before := f.slots[i].State.Modified()
			fn(first+proto.ItemID(i), &f.slots[i])
			after := f.slots[i].State.Modified()
			if before != after {
				if after {
					f.modified++
				} else {
					f.modified--
				}
			}
		}
	}
}

// AllocatedPages returns the allocated page IDs in deterministic order.
func (a *AM) AllocatedPages() []proto.PageID {
	out := make([]proto.PageID, 0, a.allocated)
	for _, page := range a.tags {
		if page != proto.NoPage {
			out = append(out, page)
		}
	}
	return out
}

// StateCounts tallies slots by state across all allocated frames (used by
// the invariant checker and memory-overhead reporting).
func (a *AM) StateCounts() map[proto.State]int {
	counts := make(map[proto.State]int)
	a.ForEachAllocated(func(_ proto.ItemID, s *Slot) {
		counts[s.State]++
	})
	return counts
}

// Clear wipes the whole memory (a transient node failure loses AM
// contents; the node rejoins empty). The frames keep their slots for
// reuse; AllocFrame empties them.
func (a *AM) Clear() {
	for fi := range a.frames {
		if a.tags[fi] != proto.NoPage {
			a.stats.FramesDropped++
		}
		a.tags[fi] = proto.NoPage
		f := &a.frames[fi]
		f.irreplaceable = false
		f.evicting = false
		f.modified = 0
	}
	a.allocated = 0
}

// AppendCopies appends the AM's non-Invalid copies to dst as an
// invariant view (proto.Point.Check).
func (a *AM) AppendCopies(dst []proto.Copy) []proto.Copy {
	a.ForEachAllocated(func(item proto.ItemID, s *Slot) {
		if s.State != proto.Invalid {
			dst = append(dst, proto.Copy{Item: item, Node: a.node, State: s.State, Partner: s.Partner})
		}
	})
	return dst
}
