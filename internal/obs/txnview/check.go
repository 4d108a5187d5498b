package txnview

import (
	"fmt"
	"io"

	"coma/internal/obs"
	"coma/internal/proto"
)

// CheckReport is the result of replaying a trace against the protocol's
// recovery invariants.
type CheckReport struct {
	Events     int
	Txns       int
	Incomplete int   // transactions still in flight at trace end
	Rounds     int64 // coordinator rounds completed
	Violations []string
}

// OK reports whether the trace passed every check.
func (r *CheckReport) OK() bool { return len(r.Violations) == 0 }

// Write renders the report.
func (r *CheckReport) Write(w io.Writer) error {
	fmt.Fprintf(w, "  events       %d\n", r.Events)
	fmt.Fprintf(w, "  transactions %d (%d in flight at trace end)\n", r.Txns, r.Incomplete)
	fmt.Fprintf(w, "  rounds       %d\n", r.Rounds)
	if r.OK() {
		fmt.Fprintf(w, "  invariants   ok (single master, fill legality, checkpoint atomicity, rollback persistence)\n")
		return nil
	}
	fmt.Fprintf(w, "  violations   %d\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    %s\n", v)
	}
	return nil
}

// Check replays a trace and verifies the protocol invariants the paper
// argues for:
//
//  1. the recovery-data invariants of proto/invariant.go at every
//     drained point: the structural set (single master, exclusive
//     alone, unique recovery copies, complete pairs, one generation) at
//     round quiesce, checkpoint round end and trace end; plus checkpoint
//     atomicity (no Pre-Commit and no stale Inv-CK copy) at the commit
//     instant; plus no stray Pre-Commit and rollback persistence
//     (exactly one owner per surviving item) at the end of a recovery
//     round;
//  2. fill legality — a remote fill's data came from a copy that
//     existed when the transaction began, and a cold fill happened only
//     when no master existed (no fill from an invalid copy).
//
// It also cross-checks every KState event against the replayed state
// (the recorded From must match what the trace itself implies), which
// catches corrupted, reordered or truncated traces with a precise
// item/round diagnostic.
func Check(events []obs.Event) *CheckReport {
	rep, _ := check(events)
	return rep
}

// check is Check, also returning the replay so that Summarize can read
// its coverage without a second pass.
func check(events []obs.Event) (*CheckReport, *replay) {
	rep := &CheckReport{Events: len(events)}
	set, err := Assemble(events)
	if err != nil {
		rep.Violations = append(rep.Violations, err.Error())
	} else {
		rep.Txns = len(set.Txns)
		rep.Incomplete = len(set.Incomplete())
	}
	r := replayTrace(events)
	rep.Rounds = r.rounds
	rep.Violations = append(rep.Violations, r.errs...)
	return rep, r
}

// replayTrace replays every event, then checks the drained trace end.
func replayTrace(events []obs.Event) *replay {
	r := newReplay()
	for i, ev := range events {
		r.step(i, ev)
	}
	var end int64
	if len(events) > 0 {
		end = events[len(events)-1].Time
	}
	r.checkAt(len(events), end, "trace end", proto.AtDrained)
	return r
}
