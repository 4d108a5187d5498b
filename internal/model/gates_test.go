package model

import (
	"strings"
	"testing"

	"coma/internal/am"
	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/core"
	"coma/internal/directory"
	"coma/internal/mesh"
	"coma/internal/obs"
	"coma/internal/obs/txnview"
	"coma/internal/proto"
	"coma/internal/sim"
	"coma/internal/snoop"
	"coma/internal/stats"
	"coma/internal/workload"
)

// The invariant gates all evaluate proto/invariant.go. These tests feed
// each gate a fixture built from one copy set and require every gate
// that can express the fixture to name the same invariant: the live
// machine (core.Check over forged attraction memories), the bus machine
// (snoop), the trace replay (txnview.Check over a synthetic trace) and
// the model checker (a packed state).

const gateNodes = 8

// gate is one invariant gate under test.
type gate struct {
	name     string
	points   []proto.Point // the protocol points the gate evaluates
	partners bool          // its view carries partner pointers
	// check builds the gate's fixture for copies (Item set per copy) and
	// returns its diagnostics, "" when it accepts the state.
	check func(t *testing.T, at proto.Point, copies []proto.Copy) string
}

func gates() []gate {
	all := []proto.Point{proto.AtDrained, proto.AtSteady, proto.AtCommit, proto.AtRollback}
	return []gate{
		{"live", all, true, checkLive},
		{"bus", all, true, checkBus},
		{"replay", []proto.Point{proto.AtDrained, proto.AtCommit, proto.AtRollback}, false, checkReplay},
		{"model", []proto.Point{proto.AtDrained, proto.AtSteady}, false, checkModel},
	}
}

// nopCache satisfies coherence.CacheOps for a machine without caches.
type nopCache struct{}

func (nopCache) InvalidateItem(proto.NodeID, proto.ItemID) {}
func (nopCache) DowngradeItem(proto.NodeID, proto.ItemID)  {}

// forge installs copies into AMs, allocating page frames as needed.
func forge(arch config.Arch, ams func(proto.NodeID) *am.AM, copies []proto.Copy) {
	for _, c := range copies {
		a := ams(c.Node)
		if page := arch.PageOf(c.Item); !a.HasFrame(page) {
			a.AllocFrame(page, false, 0)
		}
		a.Set(c.Item, am.Slot{State: c.State, Value: 1, Partner: c.Partner})
	}
}

func checkLive(t *testing.T, at proto.Point, copies []proto.Copy) string {
	eng := sim.New()
	t.Cleanup(func() { eng.Shutdown() })
	arch := config.KSR1(gateNodes)
	dir := directory.New(gateNodes)
	ams := make([]*am.AM, gateNodes)
	counters := make([]*stats.Node, gateNodes)
	for i := range ams {
		ams[i] = am.New(arch, proto.NodeID(i))
		counters[i] = &stats.Node{}
	}
	coh := coherence.New(eng, arch, coherence.ECP, coherence.Options{},
		mesh.New(eng, arch), dir, ams, counters, nopCache{})
	forge(arch, func(n proto.NodeID) *am.AM { return ams[n] }, copies)
	// Keep the directory in agreement so only copy invariants can fire.
	for _, c := range copies {
		e := dir.Ensure(c.Item)
		switch {
		case c.State.Owner():
			e.Owner = c.Node
		case c.State == proto.Shared:
			e.Sharers.Add(c.Node)
		}
	}
	return errText(core.Check(coh, at))
}

func checkBus(t *testing.T, at proto.Point, copies []proto.Copy) string {
	gens := make([]workload.Generator, gateNodes)
	for i := range gens {
		gens[i] = workload.NewScript("idle", nil)
	}
	arch := config.KSR1(gateNodes)
	m, err := snoop.New(snoop.Config{Arch: arch, FaultTolerant: true, Generators: gens})
	if err != nil {
		t.Fatal(err)
	}
	forge(arch, m.AM, copies)
	return errText(m.Check(at))
}

func checkReplay(t *testing.T, at proto.Point, copies []proto.Copy) string {
	var events []obs.Event
	for _, c := range copies {
		events = append(events, obs.Event{Time: 1, Kind: obs.KState, Node: c.Node, Item: c.Item,
			From: proto.Invalid, To: c.State})
	}
	point := obs.Event{Time: 2, Node: proto.None, Item: proto.NoItem, B: 1}
	switch at {
	case proto.AtDrained:
		point.Kind = obs.KRoundQuiesced
	case proto.AtCommit:
		point.Kind = obs.KCommitted
	case proto.AtRollback:
		point.Kind, point.A = obs.KRoundEnd, 1
	default:
		t.Fatalf("the replay has no %d point", at)
	}
	return strings.Join(txnview.Check(append(events, point)).Violations, "\n")
}

func checkModel(t *testing.T, at proto.Point, copies []proto.Copy) string {
	items := 0
	for _, c := range copies {
		items = max(items, int(c.Item)+1)
	}
	c := &checker{k: items, n: gateNodes}
	b := make([]byte, 1+items*gateNodes)
	b[0] = phaseCkpt
	if at == proto.AtSteady {
		b[0] = phaseNormal
	}
	for _, cp := range copies {
		c.set(b, int(cp.Item), int(cp.Node), cp.State)
	}
	c.checkInvariants(mstate(b))
	var out []string
	for _, v := range c.violations {
		out = append(out, v.Invariant)
	}
	return strings.Join(out, "\n")
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// cp is one copy of item 1 (every gate can address item 1).
func cp(n proto.NodeID, st proto.State, partner proto.NodeID) proto.Copy {
	return proto.Copy{Item: 1, Node: n, State: st, Partner: partner}
}

// healthy is a committed pair of an unmodified item plus a reader: legal
// at every point.
var healthy = []proto.Copy{
	cp(0, proto.SharedCK1, 1), cp(1, proto.SharedCK2, 0), cp(2, proto.Shared, proto.None),
}

func TestInvariantGates(t *testing.T) {
	none := proto.None
	for _, row := range []struct {
		inv proto.Invariant
		// at lists acceptable points; each gate uses the first it has.
		at     []proto.Point
		copies []proto.Copy
	}{
		{proto.SingleMaster, []proto.Point{proto.AtDrained},
			[]proto.Copy{cp(0, proto.MasterShared, none), cp(3, proto.MasterShared, none)}},
		{proto.ExclusiveAlone, []proto.Point{proto.AtDrained},
			[]proto.Copy{cp(0, proto.Exclusive, none), cp(2, proto.Shared, none)}},
		{proto.UniqueRecoveryCopy, []proto.Point{proto.AtDrained},
			[]proto.Copy{cp(0, proto.SharedCK1, 1), cp(1, proto.SharedCK2, 0), cp(2, proto.SharedCK2, 0)}},
		// A pair of mixed flavours, which a per-slot CK1/CK2 audit accepts.
		{proto.CompletePairs, []proto.Point{proto.AtDrained},
			[]proto.Copy{cp(0, proto.InvCK1, 1), cp(1, proto.SharedCK2, 0), cp(2, proto.Exclusive, none)}},
		{proto.OneGeneration, []proto.Point{proto.AtDrained},
			[]proto.Copy{cp(0, proto.SharedCK1, 1), cp(1, proto.SharedCK2, 0),
				cp(2, proto.InvCK1, 3), cp(3, proto.InvCK2, 2)}},
		{proto.MutualPartners, []proto.Point{proto.AtDrained},
			[]proto.Copy{cp(0, proto.SharedCK1, 1), cp(1, proto.SharedCK2, 5)}},
		{proto.NoStrayPreCommit, []proto.Point{proto.AtSteady, proto.AtRollback},
			[]proto.Copy{cp(0, proto.PreCommit1, 1), cp(1, proto.PreCommit2, 0)}},
		{proto.CommitAtomicity, []proto.Point{proto.AtCommit},
			[]proto.Copy{cp(0, proto.InvCK1, 1), cp(1, proto.InvCK2, 0), cp(2, proto.Exclusive, none)}},
		{proto.RollbackPersistence, []proto.Point{proto.AtRollback},
			[]proto.Copy{cp(2, proto.Shared, none)}},
	} {
		t.Run(row.inv.String(), func(t *testing.T) {
			expressed := 0
			for _, g := range gates() {
				at, ok := firstCommon(row.at, g.points)
				if !ok || (row.inv == proto.MutualPartners && !g.partners) {
					continue
				}
				expressed++
				if got := g.check(t, at, row.copies); !strings.Contains(got, row.inv.String()) {
					t.Errorf("%s gate: got %q, want a %q violation", g.name, got, row.inv)
				}
			}
			if expressed < 2 {
				t.Errorf("only %d gate(s) can express the row", expressed)
			}
		})
	}
	t.Run("healthy", func(t *testing.T) {
		for _, g := range gates() {
			for _, at := range g.points {
				if got := g.check(t, at, healthy); got != "" {
					t.Errorf("%s gate rejects a healthy state at point %d: %s", g.name, at, got)
				}
			}
		}
	})
}

func firstCommon(want, have []proto.Point) (proto.Point, bool) {
	for _, w := range want {
		for _, h := range have {
			if w == h {
				return w, true
			}
		}
	}
	return 0, false
}

// TestInvariantGatesNameLowestItem: with two bad items, every gate
// names the lower one, the same way every time.
func TestInvariantGatesNameLowestItem(t *testing.T) {
	var copies []proto.Copy
	for _, item := range []proto.ItemID{3, 1} {
		copies = append(copies,
			proto.Copy{Item: item, Node: 4 - proto.NodeID(item), State: proto.MasterShared, Partner: proto.None},
			proto.Copy{Item: item, Node: 6, State: proto.Exclusive, Partner: proto.None})
	}
	for _, g := range gates() {
		first := g.check(t, proto.AtDrained, append([]proto.Copy(nil), copies...))
		if i1, i3 := strings.Index(first, "item 1:"), strings.Index(first, "item 3:"); i1 < 0 || (i3 >= 0 && i3 < i1) {
			t.Errorf("%s gate: %q does not name item 1 first", g.name, first)
		}
		for range 50 {
			if got := g.check(t, proto.AtDrained, append([]proto.Copy(nil), copies...)); got != first {
				t.Fatalf("%s gate: reported %q, earlier %q", g.name, got, first)
			}
		}
	}
}
