package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a pass's top span
	Pass   int    `json:"pass"`   // spans of one pass share it
	Name   string `json:"name"`
	Calls  int    `json:"calls"` // calls the span covers (a loop of estimates is one span)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with no timing.
type tracer struct {
	t0    time.Time
	pass  int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) beginPass() { t.pass++ }

// call runs f inside a span named name that covers calls calls.
func (t *tracer) call(name string, calls int, f func() error) error {
	if t == nil {
		return f()
	}
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name, Calls: calls, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	err := f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return err
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	spans, calls int
	total, self  time.Duration
}

// totals sums duration and self time (duration minus the part its child
// spans cover) per span name.
func (t *tracer) totals() map[string]*spanTotal {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*spanTotal{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotal{}
			out[s.Name] = st
		}
		st.spans++
		st.calls += s.Calls
		st.total += s.dur()
		st.self += s.dur() - child[i]
	}
	return out
}

// timedCalls maps each timed-call metric to the span it reads and the
// unit it reports one call in.
var timedCalls = []struct {
	metric, span, unit string
	scale              time.Duration
}{
	{"apps.build_ms", "apps.Build", "ms", time.Millisecond},
	{"engine.run_sim_s", "engine.RunSim", "s", time.Second},
	{"engine.run_native_s", "engine.RunNative/closed", "s", time.Second},
	{"place.calibrate_ms", "place.Calibrate", "ms", time.Millisecond},
	{"place.search_joint_ms", "place.SearchJoint", "ms", time.Millisecond},
	{"eval.estimate_us", "eval.Estimate", "us", time.Microsecond},
}

// callMetrics reports the mean duration of one call per timed public
// call; a call the workload never makes reads 0.
func (t *tracer) callMetrics() metricSet {
	tot := t.totals()
	var ms metricSet
	for _, c := range timedCalls {
		st := tot[c.span]
		if st == nil || st.calls == 0 {
			ms = append(ms, metric{c.metric, 0, c.unit, "not called by this workload"})
			continue
		}
		per := float64(st.total) / float64(st.calls) / float64(c.scale)
		ms = append(ms, metric{c.metric, per, c.unit, fmt.Sprintf("mean of %d calls", st.calls)})
	}
	return ms
}

func (t *tracer) printSummary(w io.Writer) {
	tot := t.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %-26s %6s %6s %12s %12s\n", "name", "spans", "calls", "total_s", "self_s")
	for _, n := range names {
		st := tot[n]
		fmt.Fprintf(w, "spans: %-26s %6d %6d %12.6f %12.6f\n", n, st.spans, st.calls, st.total.Seconds(), st.self.Seconds())
	}
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}
