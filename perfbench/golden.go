package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"coma/internal/config"
	"coma/internal/stats"
)

// simStats are the simulated statistics the benchmark pins. They are
// deterministic for a run identity, so a change that only makes the
// simulator faster leaves every one of them unchanged. Every rollback
// round also reconfigures the machine, so Rollbacks counts the
// reconfigurations too.
type simStats struct {
	Cycles         int64 `json:"cycles"`
	Events         int64 `json:"events"`
	Instructions   int64 `json:"instructions"`
	FillsLocal     int64 `json:"fills_local"`
	FillsRemote    int64 `json:"fills_remote"`
	FillsCold      int64 `json:"fills_cold"`
	Injections     int64 `json:"injections"`
	NetMessages    int64 `json:"net_messages"`
	NetFlits       int64 `json:"net_flits"`
	RecoveryPoints int64 `json:"recovery_points"`
	Rollbacks      int64 `json:"rollbacks"`
}

func statsOf(r *stats.Run) simStats {
	t := r.Total()
	return simStats{
		Cycles:         r.Cycles,
		Events:         r.Events,
		Instructions:   t.Instructions,
		FillsLocal:     t.FillsLocal,
		FillsRemote:    t.FillsRemote,
		FillsCold:      t.FillsCold,
		Injections:     t.TotalInjections(),
		NetMessages:    r.NetMessages,
		NetFlits:       r.NetFlits,
		RecoveryPoints: r.Ckpt.Established,
		Rollbacks:      r.Ckpt.Recoveries,
	}
}

// goldenKey identifies a run independently of the code revision a
// daemon stamps into its identities.
func goldenKey(id config.RunIdentity) string {
	id.Revision = ""
	return id.Hash()
}

// golden maps goldenKey to the committed statistics of every run the
// benchmark makes at the default seed. App and Seed only label the
// entry for a reader.
type golden map[string]goldenRun

type goldenRun struct {
	App   string   `json:"app"`
	Seed  uint64   `json:"seed"`
	Stats simStats `json:"stats"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	g := golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// check compares a run's statistics with the committed ones; identities
// without a committed entry pass (they are checked by repetition).
func (g golden) check(id config.RunIdentity, got simStats) error {
	want, ok := g[goldenKey(id)]
	if ok && want.Stats != got {
		return fmt.Errorf("simulated statistics differ from golden.json:\n  got  %+v\n  want %+v", got, want)
	}
	return nil
}

// repeatCheck remembers the statistics of every identity it has seen
// and fails a later run of the same identity that disagrees: a run
// repeated in the same process, or run once untraced and once traced,
// must simulate exactly the same thing.
type repeatCheck map[string]simStats

func (rc repeatCheck) check(id config.RunIdentity, got simStats) error {
	key := goldenKey(id)
	if want, ok := rc[key]; ok && want != got {
		return fmt.Errorf("repeated run of %s differs:\n  got  %+v\n  first %+v", key[:12], got, want)
	}
	rc[key] = got
	return nil
}

// writeGolden simulates every identity the workloads run at seed and
// writes their statistics to path.
func writeGolden(path string, seed uint64) error {
	var ids []config.RunIdentity
	for _, w := range workloads {
		ids = append(ids, w.goldenIDs(seed)...)
	}
	g := golden{}
	for _, id := range ids {
		r, err := simulate(id)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", id.App, id.Seed, err)
		}
		g[goldenKey(id)] = goldenRun{id.App, id.Seed, statsOf(r)}
	}
	b, err := json.MarshalIndent(g, "", "  ") // encoding/json sorts map keys
	if err != nil {
		return err
	}
	logf("wrote %d golden runs to %s", len(g), path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
