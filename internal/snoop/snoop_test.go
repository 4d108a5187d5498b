package snoop

import (
	"testing"

	"coma/internal/config"
	"coma/internal/proto"
	"coma/internal/stats"
	"coma/internal/workload"
)

func busApp(instr int64) workload.Spec {
	return workload.Spec{
		Name:            "bus-test",
		Instructions:    instr,
		ReadFrac:        0.20,
		WriteFrac:       0.10,
		SharedReadFrac:  0.10,
		SharedWriteFrac: 0.05,
		SharedBytes:     64 << 10,
		PrivateBytes:    16 << 10,
		ReadOnlyFrac:    0.3,
		Locality:        0.4,
		HotBytes:        512,
		WindowBytes:     512,
		DriftInstr:      5_000,
		Barriers:        0,
	}
}

func run(t *testing.T, cfg Config) (*Machine, *stats.Run) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

func baseCfg(nodes int, ft bool) Config {
	return Config{
		Arch:          config.KSR1(nodes),
		FaultTolerant: ft,
		App:           busApp(100_000),
		Seed:          1,
		Oracle:        true,
		MaxCycles:     1 << 36,
	}
}

func TestStandardBusRuns(t *testing.T) {
	m, r := run(t, baseCfg(8, false))
	if r.Cycles == 0 || r.Protocol != "bus-standard" {
		t.Fatalf("run = %+v", r)
	}
	total := r.Total()
	if total.References() == 0 || total.FillsRemote == 0 {
		t.Fatal("no bus traffic")
	}
	if u := m.BusUtilisation(); u <= 0 || u > 1 {
		t.Fatalf("bus utilisation = %v", u)
	}
}

func TestBusECPEstablishesAndPairs(t *testing.T) {
	cfg := baseCfg(8, true)
	cfg.CheckpointInterval = 40_000
	m, r := run(t, cfg)
	if r.Ckpt.Established < 2 {
		t.Fatalf("established = %d", r.Ckpt.Established)
	}
	total := r.Total()
	if total.CkptItemsReplicated == 0 {
		t.Fatal("nothing replicated")
	}
	if err := m.Check(proto.AtSteady); err != nil {
		t.Fatal(err)
	}
}

func TestBusECPSlowerThanStandard(t *testing.T) {
	_, std := run(t, baseCfg(8, false))
	cfg := baseCfg(8, true)
	cfg.CheckpointInterval = 20_000
	_, ecp := run(t, cfg)
	if ecp.Cycles <= std.Cycles {
		t.Fatalf("bus ECP (%d) not slower than standard (%d)", ecp.Cycles, std.Cycles)
	}
	o := stats.Decompose(std, ecp)
	if o.CreateFraction() <= 0 {
		t.Fatal("no create cost measured")
	}
}

func TestBusTransientFailureRecovers(t *testing.T) {
	cfg := baseCfg(8, true)
	cfg.CheckpointInterval = 20_000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.FailTransient(70_000, 3)
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Ckpt.Recoveries != 1 {
		t.Fatalf("recoveries = %d", r.Ckpt.Recoveries)
	}
	if r.Ckpt.Established < 1 {
		t.Fatal("no recovery point before the failure")
	}
	reconf := int64(0)
	for _, c := range r.PerNode {
		reconf += c.Injections[proto.InjectReconfigure]
	}
	if reconf == 0 {
		t.Fatal("no reconfiguration after memory loss")
	}
	if err := m.Check(proto.AtSteady); err != nil {
		t.Fatal(err)
	}
}

func TestBusDeterminism(t *testing.T) {
	cfg := baseCfg(8, true)
	cfg.CheckpointInterval = 25_000
	_, a := run(t, cfg)
	_, b := run(t, cfg)
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	ta, tb := a.Total(), b.Total()
	if ta != tb {
		t.Fatal("counters differ")
	}
}

func TestBusSaturatesWithNodes(t *testing.T) {
	// The motivation for non-hierarchical COMAs: bus utilisation climbs
	// with machine size on a shared-everything workload.
	utilisation := func(nodes int) float64 {
		cfg := baseCfg(nodes, false)
		cfg.App = workload.Uniform()
		cfg.App.Instructions = 100_000
		m, _ := run(t, cfg)
		return m.BusUtilisation()
	}
	small := utilisation(4)
	large := utilisation(16)
	if large <= small {
		t.Fatalf("bus utilisation did not grow with machine size: %.2f -> %.2f", small, large)
	}
}

func TestBusRejectsBadConfig(t *testing.T) {
	cfg := baseCfg(8, false)
	cfg.CheckpointInterval = 1000
	if _, err := New(cfg); err == nil {
		t.Fatal("standard bus accepted checkpointing")
	}
	cfg = baseCfg(2, true)
	cfg.CheckpointInterval = 1000
	if _, err := New(cfg); err == nil {
		t.Fatal("2-node bus ECP accepted checkpointing")
	}
}
