package main

import (
	"fmt"
	"math"

	"streamscale/internal/apps"
	"streamscale/internal/bench"
	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/place"
	"streamscale/internal/place/eval"
)

// warmScale is the event scale of the set-up warm-up cells: small enough
// to be cheap, large enough to build every structure the full cells use.
const warmScale = 0.1

// simSystem returns the engine profile a cell's System names.
func simSystem(c bench.Cell) engine.SystemProfile {
	if c.System == "flink" {
		return engine.Flink()
	}
	return engine.Storm()
}

// simConfig mirrors how the harness configures a cell's simulation, so a
// direct engine.RunSim of the cell must reproduce the memoized result.
func simConfig(c bench.Cell) engine.SimConfig {
	return engine.SimConfig{System: simSystem(c), BatchSize: c.BatchSize, Sockets: c.Sockets, Seed: c.Seed}
}

func cellLabel(c bench.Cell) string { return c.App + "/" + c.System }

// simPass describes a simulated pass. Its one unit of work is the pass
// itself: the request a user of the simulator waits on, a plan or a sweep,
// so both latency quantiles are the pass's host time.
func simPass(wall, cpu float64, events int64, rs []*engine.Result) *passStats {
	return &passStats{wall: wall, cpu: cpu, events: events, allEvents: events, p50: wall * 1e3, p99: wall * 1e3, units: 1, counts: simCounts(rs)}
}

// simCounts sums the simulator's exact counts over a pass's results.
func simCounts(rs []*engine.Result) map[string]float64 {
	m := map[string]float64{}
	for _, r := range rs {
		m["hw.charged_cycles"] += float64(r.ChargedCycles)
		m["hw.qpi_bytes"] += float64(r.QPIBytes)
		m["engine.acked_trees"] += float64(r.AckerCompleted)
		m["jvm.minor_gcs"] += float64(r.MinorGCs)
		for _, e := range r.Executors {
			m["engine.invocations"] += float64(e.Invocations)
		}
		for _, e := range r.Edges {
			m["engine.edge_msgs"] += float64(e.Msgs)
		}
	}
	st := bench.MemoStats()
	m["memo.simulated"] = float64(st.Runs)
	m["memo.deduped"] = float64(st.MemHits)
	if req := st.Runs + st.MemHits + st.DiskHits; req > 0 {
		m["memo.hit_ratio"] = float64(st.MemHits+st.DiskHits) / float64(req)
	}
	return m
}

// lrStorm is sim-lr-storm-4s: one lr/storm cell on all four sockets,
// then the placement plan dspplace -strategy joint makes from it, and an
// analytical screen of machine slices and batch sizes.
type lrStorm struct {
	jobs  int
	cell  bench.Cell
	ref   *reference
	seen  sameAs
	check checker
}

func newLRStorm(seed int64, jobs int) (runner, error) {
	ref, err := loadReference(seed)
	if err != nil {
		return nil, err
	}
	return &lrStorm{jobs: jobs, cell: lrCell(seed), ref: ref, seen: sameAs{}}, nil
}

func lrCell(seed int64) bench.Cell {
	return bench.Cell{App: "lr", System: "storm", Sockets: 4, BatchSize: 1, Seed: seed}
}

func (w *lrStorm) checker() *checker { return &w.check }

func (w *lrStorm) setup() error {
	warm := w.cell
	warm.EventScale = warmScale
	bench.ResetMemo()
	_, err := w.run(nil, warm)
	bench.ResetMemo()
	return err
}

// lrPass is what one lr pass produced.
type lrPass struct {
	res    *engine.Result
	joint  *place.JointResult
	wall   float64
	cpu    float64
	winner string
}

// run executes the pass's public calls on cell: simulate, request the
// probe again as the planner does (a memo hit), calibrate, joint-search,
// and screen slices with the estimator.
func (w *lrStorm) run(tr *tracer, cell bench.Cell) (*lrPass, error) {
	sys := simSystem(cell)
	spec := hw.TableIII()
	out := &lrPass{}
	var probe *engine.Result
	var topo *engine.Topology
	var model *place.Model
	var wl *place.Workload
	var est *eval.Estimator
	sw := startWatch()
	steps := []struct {
		name  string
		calls int
		f     func() error
	}{
		{"bench.Run", 1, func() (err error) { out.res, err = bench.Run(cell); return }},
		{"bench.Run/probe", 1, func() (err error) { probe, err = bench.Run(cell); return }},
		{"apps.Build", 1, func() (err error) { topo, err = cell.Topology(); return }},
		{"place.Calibrate", 1, func() (err error) { model, err = place.Calibrate(probe, spec, sys, 1); return }},
		{"place.NewWorkload", 1, func() (err error) { wl, err = place.NewWorkload(model, topo, sys); return }},
		{"place.SearchJoint", 1, func() (err error) {
			out.joint, err = wl.SearchJoint(place.JointOptions{Search: place.SearchOptions{Workers: w.jobs}})
			return
		}},
		{"eval.New", 1, func() (err error) { est, err = eval.New(probe, spec, sys, 1); return }},
		{"eval.Estimate", len(screenSockets) * len(screenBatches), func() error {
			for _, s := range screenSockets {
				for _, b := range screenBatches {
					p, err := est.Estimate(eval.Target{Sockets: s, Batch: b})
					if err != nil {
						return err
					}
					if !(p.ThroughputEPS > 0) {
						return fmt.Errorf("estimate for %d sockets, S=%d: throughput %v", s, b, p.ThroughputEPS)
					}
				}
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := tr.call(s.name, s.calls, s.f); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", cellLabel(cell), s.name, err)
		}
	}
	out.wall, out.cpu = sw.read()
	if len(out.joint.Candidates) == 0 {
		return nil, fmt.Errorf("%s: joint search returned no candidates", cellLabel(cell))
	}
	c := out.joint.Candidates[0]
	out.winner = fmt.Sprintf("par=%v assign=%v score=%x", c.Par, c.Assign, math.Float64bits(c.Score))
	return out, nil
}

// The estimator screen: every socket slice at four batch sizes.
var (
	screenSockets = []int{1, 2, 3, 4}
	screenBatches = []int{1, 2, 4, 8}
)

func (w *lrStorm) pass(tr *tracer) (*passStats, error) {
	bench.ResetMemo()
	p, err := w.run(tr, w.cell)
	if err != nil {
		return nil, err
	}
	label := cellLabel(w.cell)
	d := digest(p.res)
	problems := simCellProblems(p.res, true)
	problems = append(problems, w.seen.check(label+" digest", d)...)
	problems = append(problems, w.seen.check(label+" joint winner", p.winner)...)
	problems = append(problems, w.ref.matchDigest(label, d)...)
	if w.ref != nil && p.winner != w.ref.Winner {
		problems = append(problems, fmt.Sprintf("joint winner %s, reference %s", p.winner, w.ref.Winner))
	}
	w.check.record(label, problems)

	ps := simPass(p.wall, p.cpu, p.res.SourceEvents, []*engine.Result{p.res})
	ps.counts["place.vectors_screened"] = float64(p.joint.VectorsScreened)
	if p.joint.VectorsScreened > 0 {
		ps.counts["place.searched_ratio"] = float64(p.joint.VectorsSearched) / float64(p.joint.VectorsScreened)
	}
	return ps, nil
}

func (w *lrStorm) direct(tr *tracer) error {
	return directSim(tr, []bench.Cell{w.cell}, w.seen, &w.check)
}

// directSim builds and simulates each cell through apps.Build and
// engine.RunSim directly, timing both, and checks each result's digest
// equals the one the memoized pass produced.
func directSim(tr *tracer, cells []bench.Cell, seen sameAs, ck *checker) error {
	for _, c := range cells {
		var topo *engine.Topology
		var res *engine.Result
		err := tr.call("apps.Build", 1, func() (err error) {
			topo, err = apps.Build(c.App, apps.Config{Events: c.Events(), Seed: c.Seed, Scale: c.Scale})
			return
		})
		if err != nil {
			return err
		}
		if err := tr.call("engine.RunSim", 1, func() (err error) { res, err = engine.RunSim(topo, simConfig(c)); return }); err != nil {
			return fmt.Errorf("%s: engine.RunSim: %w", cellLabel(c), err)
		}
		label := cellLabel(c)
		problems := simCellProblems(res, simSystem(c).AckEnabled)
		problems = append(problems, seen.check(label+" digest", digest(res))...)
		ck.record(label+" (direct)", problems)
	}
	return nil
}

// appsFlink is sim-apps-flink-b8: one RunCells sweep over the seven
// benchmark apps on flink, one socket, batch 8, from a cold memo.
type appsFlink struct {
	jobs  int
	cells []bench.Cell
	ref   *reference
	seen  sameAs
	check checker
}

func newAppsFlink(seed int64, jobs int) (runner, error) {
	ref, err := loadReference(seed)
	if err != nil {
		return nil, err
	}
	return &appsFlink{jobs: jobs, cells: flinkCells(seed), ref: ref, seen: sameAs{}}, nil
}

func flinkCells(seed int64) []bench.Cell {
	var cells []bench.Cell
	for _, app := range apps.BenchmarkNames() {
		cells = append(cells, bench.Cell{App: app, System: "flink", Sockets: 1, BatchSize: 8, Seed: seed})
	}
	return cells
}

func (w *appsFlink) checker() *checker { return &w.check }

func (w *appsFlink) setup() error {
	warm := make([]bench.Cell, len(w.cells))
	for i, c := range w.cells {
		c.EventScale = warmScale
		warm[i] = c
	}
	bench.ResetMemo()
	_, err := bench.RunCells(warm, w.jobs)
	bench.ResetMemo()
	return err
}

func (w *appsFlink) pass(tr *tracer) (*passStats, error) {
	bench.ResetMemo()
	var out []bench.CellResult
	sw := startWatch()
	err := tr.call("bench.RunCells", len(w.cells), func() (err error) { out, err = bench.RunCells(w.cells, w.jobs); return })
	wall, cpu := sw.read()
	if err != nil {
		return nil, err
	}
	rs := make([]*engine.Result, len(out))
	var events int64
	for i, cr := range out {
		rs[i] = cr.Res
		events += cr.Res.SourceEvents
		label := cellLabel(cr.Cell)
		d := digest(cr.Res)
		problems := simCellProblems(cr.Res, simSystem(cr.Cell).AckEnabled)
		problems = append(problems, w.seen.check(label+" digest", d)...)
		problems = append(problems, w.ref.matchDigest(label, d)...)
		w.check.record(label, problems)
	}
	return simPass(wall, cpu, events, rs), nil
}

func (w *appsFlink) direct(tr *tracer) error { return directSim(tr, w.cells, w.seen, &w.check) }
