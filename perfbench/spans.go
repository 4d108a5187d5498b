package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// simulation run or one comad job share Trace; Parent names the span
// that caused this one (0: a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced runs stay untraced. It is not
// safe for concurrent use; concurrent clients each own one.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

// add records a span over [start, end] and returns its ID.
func (l *spanLog) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()})
	return id
}

// selfNS returns, per span name, the summed self time: each span's
// duration minus the part of it that its child spans cover.
func selfNS(spans []span) map[string]float64 {
	type key struct{ trace, id uint64 }
	covered := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[key{s.Trace, s.Parent}] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End - s.Start - covered[key{s.Trace, s.ID}])
	}
	return out
}

// noteSelfTimes adds the summed self time of each span name to the
// report's notes.
func noteSelfTimes(rep *report, spans []span) {
	self := selfNS(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.note("span %-16s self %.3f s", name, self[name]/1e9)
	}
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
