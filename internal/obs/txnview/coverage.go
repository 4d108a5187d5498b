package txnview

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"coma/internal/obs"
	"coma/internal/proto"
)

// Edge is one state transition with how often the trace exercised it
// and the protocol table's description of when it happens.
type Edge struct {
	From, To proto.State
	Count    int64
	Via      string // from the protocol table; empty for unexpected edges
}

// RecoveryEdge reports whether the edge touches an ECP recovery state.
func (e Edge) RecoveryEdge() bool {
	return e.From.Recovery() || e.To.Recovery()
}

// CoverageReport diffs the transitions a trace exercised against the
// full extended-coherence-protocol transition table.
type CoverageReport struct {
	Exercised   []Edge // in the table and observed
	Unexercised []Edge // in the table, never observed (Count 0)
	Unexpected  []Edge // observed but absent from the table
}

// Coverage replays a trace (KState events plus the synthesised scan
// transforms) and diffs the observed transition matrix against
// proto.ECPTransitions. Unexercised recovery edges show which
// fault-tolerance paths a test campaign never entered; unexpected edges
// mean the simulator performed a transition the protocol does not
// define.
func Coverage(events []obs.Event) *CoverageReport {
	return coverageOf(replayTrace(events).observed)
}

// coverageOf diffs an observed transition matrix against the table.
func coverageOf(observed map[transKey]int64) *CoverageReport {
	// The table can describe one (from,to) pair several ways (e.g. an
	// Inv-CK copy vanishing at commit vs. moving by injection); merge
	// the descriptions per pair.
	via := make(map[transKey]string)
	for _, tr := range proto.ECPTransitions() {
		k := transKey{tr.From, tr.To}
		if cur, ok := via[k]; ok {
			if !strings.Contains(cur, tr.Via) {
				via[k] = cur + "; " + tr.Via
			}
		} else {
			via[k] = tr.Via
		}
	}

	// Walk both maps in sorted key order so the report lists (and any
	// diagnostics derived from them) are deterministic by construction.
	rep := &CoverageReport{}
	for _, k := range sortedKeys(via) {
		e := Edge{From: k.from, To: k.to, Count: observed[k], Via: via[k]}
		if e.Count > 0 {
			rep.Exercised = append(rep.Exercised, e)
		} else {
			rep.Unexercised = append(rep.Unexercised, e)
		}
	}
	for _, k := range sortedKeys(observed) {
		if _, ok := via[k]; !ok {
			rep.Unexpected = append(rep.Unexpected, Edge{From: k.from, To: k.to, Count: observed[k]})
		}
	}
	return rep
}

// sortedKeys returns a transition-keyed map's keys ordered by (from, to).
func sortedKeys[V any](m map[transKey]V) []transKey {
	keys := make([]transKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	return keys
}

// Write renders the report. Recovery edges are tagged so the
// fault-tolerance coverage stands out.
func (r *CoverageReport) Write(w io.Writer) error {
	tag := func(e Edge) string {
		if e.RecoveryEdge() {
			return " [recovery]"
		}
		return ""
	}
	total := len(r.Exercised) + len(r.Unexercised)
	fmt.Fprintf(w, "  protocol edges exercised: %d/%d\n", len(r.Exercised), total)
	for _, e := range r.Exercised {
		fmt.Fprintf(w, "    %-13v -> %-13v %8d  %s%s\n", e.From, e.To, e.Count, e.Via, tag(e))
	}
	if len(r.Unexercised) > 0 {
		fmt.Fprintf(w, "  unexercised: %d\n", len(r.Unexercised))
		for _, e := range r.Unexercised {
			fmt.Fprintf(w, "    %-13v -> %-13v %8s  %s%s\n", e.From, e.To, "-", e.Via, tag(e))
		}
	}
	if len(r.Unexpected) > 0 {
		fmt.Fprintf(w, "  UNEXPECTED (observed but not in the protocol table): %d\n", len(r.Unexpected))
		for _, e := range r.Unexpected {
			fmt.Fprintf(w, "    %-13v -> %-13v %8d%s\n", e.From, e.To, e.Count, tag(e))
		}
	}
	return nil
}

// UnexercisedRecovery returns the recovery-state edges the trace never
// entered — the paper's fault-tolerance paths a campaign left untested.
func (r *CoverageReport) UnexercisedRecovery() []Edge {
	var out []Edge
	for _, e := range r.Unexercised {
		if e.RecoveryEdge() {
			out = append(out, e)
		}
	}
	return out
}
