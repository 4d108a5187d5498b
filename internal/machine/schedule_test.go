package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
	"coma/internal/obs"
	"coma/internal/workload"
)

// hashObserver streams a run's JSONL trace into SHA-256 in chunks, so a
// large trace is pinned without being held in memory. The bytes hashed
// are exactly those obs.WriteJSONL would write for the whole run.
type hashObserver struct {
	h   hash.Hash
	buf []obs.Event
}

func (o *hashObserver) Emit(ev obs.Event) {
	o.buf = append(o.buf, ev)
	if len(o.buf) == cap(o.buf) {
		o.flush()
	}
}

func (o *hashObserver) flush() {
	if err := obs.WriteJSONL(o.h, o.buf); err != nil {
		panic(err)
	}
	o.buf = o.buf[:0]
}

// TestScheduleGolden pins the event schedule of four runs: the simulated
// cycles, the events dispatched and the SHA-256 of the JSONL trace. Any
// change to the order in which the kernel, the protocol engine, the
// processor loop or the coordinator schedule events moves at least one
// of them, so a refactor of those layers that claims to keep the
// schedule 1:1 must leave this test passing unchanged.
func TestScheduleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four traced runs")
	}
	cases := []struct {
		name   string
		cfg    Config
		cycles int64
		events int64
		trace  string
	}{
		{
			// The CI smoke-trace run: comasim -app mp3d -nodes 4
			// -protocol ecp -hz 400 -scale 0.002 -fail 40000:2.
			name: "ecp-mp3d-4-faulted",
			cfg: Config{
				Arch: config.KSR1(4), Protocol: coherence.ECP,
				App: workload.Mp3d().Scale(0.002), Seed: 1, Oracle: true,
				CheckpointHz: 400,
				Failures:     []FailurePlan{{At: 40000, Node: 2}},
			},
			cycles: 148843, events: 47815,
			trace: "55711255ea08aac0c74e36520776f41718897d9ebb3c6ea7940ce50d81172cf6",
		},
		{
			name: "std-barnes-16",
			cfg: Config{
				Arch: config.KSR1(16), Protocol: coherence.Standard,
				App: workload.Barnes().Scale(0.01), Seed: 1, Oracle: true,
			},
			cycles: 286704, events: 284515,
			trace: "4fac29757473b3be31cbdc0bd58badb41cc76845154cb6b0a6a573d6a0626ebd",
		},
		{
			// A permanent failure: recovery and reconfiguration rounds,
			// processors parked at application barriers and finished
			// processors serving rounds.
			name: "ecp-water-16-permanent",
			cfg: Config{
				Arch: config.KSR1(16), Protocol: coherence.ECP,
				App: workload.Water().Scale(0.005), Seed: 1, Oracle: true,
				CheckpointHz: 400,
				Failures:     []FailurePlan{{At: 50000, Node: 7, Permanent: true}},
			},
			cycles: 126604, events: 121779,
			trace: "b912db1119d4bc2958baf9de8d44d03d6da9c255fd5a8d5483219ea50de76e66",
		},
		{
			// Strict mode: a flush before every reference and an oracle
			// check on every cache hit.
			name: "ecp-test-4-strict",
			cfg: Config{
				Arch: config.KSR1(4), Protocol: coherence.ECP,
				App: smallApp(100_000), Seed: 3, Oracle: true, Strict: true,
				CheckpointInterval: 20_000,
				Failures:           []FailurePlan{{At: 30_000, Node: 1}},
			},
			cycles: 174955, events: 81731,
			trace: "681b262d231d96457c2d6b22586e44836e05212ba551bd585e3901abc1ae21d6",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := &hashObserver{h: sha256.New(), buf: make([]obs.Event, 0, 4096)}
			c.cfg.Obs = o
			c.cfg.MaxCycles = 500_000_000
			r := runCfg(t, c.cfg)
			o.flush()
			sum := hex.EncodeToString(o.h.Sum(nil))
			if r.Cycles != c.cycles || r.Events != c.events || sum != c.trace {
				t.Errorf("schedule moved:\n got cycles=%d events=%d trace=%s\nwant cycles=%d events=%d trace=%s",
					r.Cycles, r.Events, sum, c.cycles, c.events, c.trace)
			}
		})
	}
}
