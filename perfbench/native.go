package main

import (
	"fmt"

	"streamscale/internal/apps"
	"streamscale/internal/engine"
)

// Native workload sizing. The closed-loop pass runs the source flat out,
// for one to four seconds on a two-vCPU Xeon guest, whose peak ranged
// from 190k down to 40k events/s as other guests loaded the host. The
// open-loop pass offers openRate events per second from the source
// executor for one second: under half of even the lowest peak, so the
// offered load stays sustainable and the rings stay near-empty.
const (
	closedEvents = 150_000
	openRate     = 20_000
	openEvents   = 20_000
	nativeBatch  = 4
	// warmDiv shrinks both passes for the set-up warm-up.
	warmDiv = 10
)

// nativeWC is native-wc-storm: wc on storm on the native runtime, batch 4,
// acks on — one closed-loop pass at peak rate and one open-loop pass at a
// fixed offered rate with every tuple's latency observed.
type nativeWC struct {
	seed  int64
	sinks map[int]int64 // expected sink tuples per source event count
	check checker
}

func newNativeWC(seed int64, _ int) (runner, error) {
	w := &nativeWC{seed: seed, sinks: map[int]int64{}}
	ref, err := loadReference(seed)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{closedEvents, openEvents} {
		words := wcSinks(seed, n)
		if ref != nil && ref.Sinks[fmt.Sprint(n)] != words {
			return nil, fmt.Errorf("wc oracle gives %d sink tuples for %d events, stored reference %d", words, n, ref.Sinks[fmt.Sprint(n)])
		}
		w.sinks[n] = words
	}
	return w, nil
}

// wcSinks is the reference sink count for n events of a seed: one sink
// tuple per word the wc oracle counts.
func wcSinks(seed int64, n int) int64 {
	var words int64
	for _, c := range apps.WCReferenceCounts(apps.Config{Events: n, Seed: seed}) {
		words += c
	}
	return words
}

func (w *nativeWC) checker() *checker { return &w.check }

// run builds the wc topology for events source events and runs it
// natively at rate (0 runs closed-loop), recording the RunNative call under
// the span name. With check set it checks the run's outputs.
func (w *nativeWC) run(tr *tracer, span string, events int, rate float64, check bool) (res *engine.Result, wall, cpu float64, err error) {
	var topo *engine.Topology
	sw := startWatch()
	if err := tr.call("apps.Build", 1, func() (err error) {
		topo, err = apps.Build("wc", apps.Config{Events: events, Seed: w.seed})
		return
	}); err != nil {
		return nil, 0, 0, err
	}
	cfg := engine.NativeConfig{System: engine.Storm(), BatchSize: nativeBatch, Seed: w.seed, SourceRate: rate}
	if rate > 0 {
		cfg.LatencySampleEvery = 1
	}
	if err := tr.call(span, 1, func() (err error) { res, err = engine.RunNative(topo, cfg); return }); err != nil {
		return nil, 0, 0, err
	}
	wall, cpu = sw.read()
	if check {
		var p []string
		if res.AckerCompleted != res.SourceEvents {
			p = append(p, fmt.Sprintf("acked trees %d != source events %d", res.AckerCompleted, res.SourceEvents))
		}
		if res.SinkEvents != w.sinks[events] {
			p = append(p, fmt.Sprintf("sink tuples %d, reference %d for seed %d", res.SinkEvents, w.sinks[events], w.seed))
		}
		w.check.record(fmt.Sprintf("wc/storm native %s", span), p)
	}
	return res, wall, cpu, nil
}

func (w *nativeWC) setup() error {
	if _, _, _, err := w.run(nil, "warm/closed", closedEvents/warmDiv, 0, false); err != nil {
		return err
	}
	_, _, _, err := w.run(nil, "warm/open", openEvents/warmDiv, openRate, false)
	return err
}

func (w *nativeWC) pass(tr *tracer) (*passStats, error) {
	closed, wall, cpu, err := w.run(tr, "engine.RunNative/closed", closedEvents, 0, true)
	if err != nil {
		return nil, err
	}
	open, _, _, err := w.run(tr, "engine.RunNative/open", openEvents, openRate, true)
	if err != nil {
		return nil, err
	}
	ps := &passStats{
		wall:      wall,
		cpu:       cpu,
		events:    closed.SourceEvents,
		allEvents: closed.SourceEvents + open.SourceEvents,
		p50:       open.Latency.Quantile(0.5),
		p99:       open.Latency.Quantile(0.99),
		units:     open.Latency.Count(),
		counts:    map[string]float64{},
	}
	for _, r := range []*engine.Result{closed, open} {
		ps.counts["engine.acked_trees"] += float64(r.AckerCompleted)
		for _, e := range r.Executors {
			ps.counts["engine.invocations"] += float64(e.Invocations)
		}
	}
	// How late the open-loop source ran: the run's elapsed time beyond the
	// schedule's own length.
	ps.counts["gen.lag_ms"] = (open.ElapsedSeconds - float64(openEvents)/openRate) * 1e3
	return ps, nil
}

func (w *nativeWC) direct(*tracer) error { return nil }
