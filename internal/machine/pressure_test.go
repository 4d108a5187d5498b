package machine

import (
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/proto"
	"coma/internal/workload"
)

// TestCapacityPressureReplacements shrinks the attraction memories until
// the working set no longer fits, forcing page replacements: master and
// recovery copies must survive via replacement injections (the Table 1
// rows that never fire in the paper's own capacity-free runs), and the
// value oracle must hold throughout.
func TestCapacityPressureReplacements(t *testing.T) {
	arch := config.KSR1(16)
	arch.AMSize = 1 << 20 // 64 frames per node, 4 sets x 16 ways
	if err := arch.Validate(); err != nil {
		t.Fatal(err)
	}
	app := workload.Spec{
		Name:            "pressure",
		Instructions:    400_000,
		ReadFrac:        0.20,
		WriteFrac:       0.10,
		SharedReadFrac:  0.15,
		SharedWriteFrac: 0.06,
		SharedBytes:     2 << 20, // 128 pages: 32 per AM set vs 16 ways
		PrivateBytes:    16 << 10,
		ReadOnlyFrac:    0.2,
		Locality:        0.2,
		HotBytes:        1 << 10,
		WindowBytes:     4 << 10,
		DriftInstr:      2_000,
		Barriers:        2,
	}
	cfg := Config{
		Arch:               arch,
		Protocol:           coherence.ECP,
		App:                app,
		Seed:               3,
		CheckpointInterval: 60_000,
		Oracle:             true,
		Invariants:         true,
		MaxCycles:          1 << 40,
	}
	r := runCfg(t, cfg)
	total := r.Total()
	if total.Injections[proto.InjectReplaceMaster] == 0 {
		t.Error("no master-replacement injections under capacity pressure")
	}
	ckReplace := total.Injections[proto.InjectReplaceSharedCK] +
		total.Injections[proto.InjectReplaceInvCK]
	if ckReplace == 0 {
		t.Error("no recovery-copy replacement injections under capacity pressure")
	}
	if r.Ckpt.Established < 2 {
		t.Errorf("established = %d", r.Ckpt.Established)
	}
}

// TestStandardProtocolUnderPressure runs the same shrunken machine under
// the baseline protocol: master copies must never be lost to
// replacements.
func TestStandardProtocolUnderPressure(t *testing.T) {
	arch := config.KSR1(9)
	arch.AMSize = 1 << 20
	app := smallApp(200_000)
	app.SharedBytes = 2 << 20
	app.WindowBytes = 4 << 10
	cfg := Config{
		Arch:      arch,
		Protocol:  coherence.Standard,
		App:       app,
		Seed:      5,
		Oracle:    true,
		MaxCycles: 1 << 40,
	}
	r := runCfg(t, cfg)
	if r.Total().Injections[proto.InjectReplaceMaster] == 0 {
		t.Error("no master-replacement injections; the pressure test is vacuous")
	}
}

// TestTraceReplayDrivesBothProtocols collects every processor's reference
// stream once and replays the identical streams through the standard
// protocol and the ECP — the paper's methodology of comparing two
// simulators on the same traced applications.
func TestTraceReplayDrivesBothProtocols(t *testing.T) {
	const nodes = 9
	spec := workload.Water().Scale(0.002)
	streams := make([][]workload.Ref, nodes)
	for i := range streams {
		g := spec.NewApp(i, nodes, 11)
		for r := g.Next(); r.Kind != workload.End; r = g.Next() {
			streams[i] = append(streams[i], r)
		}
	}
	run := func(protocol coherence.Protocol, interval int64) *stats1 {
		gens := make([]workload.Generator, nodes)
		for i, refs := range streams {
			gens[i] = workload.NewScript("water-trace", refs)
		}
		cfg := Config{
			Arch:               config.KSR1(nodes),
			Protocol:           protocol,
			Generators:         gens,
			Oracle:             true,
			CheckpointInterval: interval,
			MaxCycles:          1 << 40,
		}
		r := runCfg(t, cfg)
		tot := r.Total()
		return &stats1{refs: tot.References(), cycles: r.Cycles}
	}
	std := run(coherence.Standard, 0)
	ecp := run(coherence.ECP, 5_000)
	if std.refs != ecp.refs {
		t.Fatalf("replayed reference counts differ: %d vs %d", std.refs, ecp.refs)
	}
	if ecp.cycles <= std.cycles {
		t.Fatalf("ECP (%d) not slower than standard (%d) on identical traces",
			ecp.cycles, std.cycles)
	}
}

type stats1 struct {
	refs   int64
	cycles int64
}
