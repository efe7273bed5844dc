// Command perfbench is the repository's benchmark. It measures the host cost
// of the cycle-level simulator and the native runtime's throughput and
// latency on three named workloads, checks every output it produces, and
// prints one JSON result line last on standard output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sim-lr-storm-4s --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics from untraced passes;
// with --trace 1 it runs a separate traced pass under the CPU profiler and
// reports the per-layer metrics. NOTES.md explains the workloads, the
// metrics and which layer should move which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"streamscale/internal/bench"
)

// workload is one named benchmark workload. NOTES.md says why each was
// chosen.
type workload struct {
	name string
	new  func(seed int64, jobs int) (runner, error)
}

// runner drives one workload. Every method is called from the main
// goroutine, one at a time.
type runner interface {
	// setup performs one cold set-up, a warm-up that makes every lazy
	// initialization happen before any pass. The caller times it.
	setup() error
	// pass runs one measured pass; tr is nil on untraced passes.
	pass(tr *tracer) (*passStats, error)
	// direct times the workload's public calls one by one, outside any
	// pass (trace mode only), and checks they agree with the pass.
	direct(tr *tracer) error
	// checker returns the workload's output-check tally.
	checker() *checker
}

// passStats is what one pass measured.
type passStats struct {
	wall   float64 // host seconds of the pass's timed part
	cpu    float64 // process CPU seconds of the same part
	events int64   // source events the timed part completed
	// allEvents counts the source events of the whole pass, the base of
	// its per-event allocation count.
	allEvents int64
	// p50 and p99 are the pass's latency quantiles in ms, over units of
	// work: the simulated pass itself (host time) or native tuples (real
	// time from their scheduled arrival).
	p50, p99 float64
	units    int64
	// counts are the pass's exact per-layer counts, by metric name.
	counts map[string]float64

	allocBytes uint64 // filled by measurePass
	rssPeakMB  float64
	mallocs    uint64
	gcs        uint32
}

// BENCHMARK.json gates the two sim workloads; native-wc-storm is run by
// hand, because its CPU time per pass drifts with a shared host's load by
// more than the gate allows (NOTES.md).
var workloads = []workload{
	{"sim-lr-storm-4s", newLRStorm},
	{"sim-apps-flink-b8", newAppsFlink},
	{"native-wc-storm", newNativeWC},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed; 1 is the seed the stored reference outputs were made with")
		seconds  = flag.Int("seconds", 40, "seconds of measured passes")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for profiles, spans and result records")
		printRef = flag.Bool("print-reference", false, "print the reference outputs for the default seed and exit")
	)
	flag.Parse()

	jobs := runtime.NumCPU()
	runtime.GOMAXPROCS(jobs)
	bench.SetJobs(jobs)
	bench.SetProgress(false)

	if *printRef {
		if err := printReference(jobs); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*outDir, 0o777); err != nil {
		fatal(err)
	}

	host := describeHost(jobs)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("host: %s\n", host)

	r, err := w.new(*seed, jobs)
	if err != nil {
		fatal(err)
	}
	budget := time.Duration(*seconds) * time.Second
	var ms metricSet
	if *trace == 1 {
		ms, err = runTraced(w.name, *seed, r, budget, *outDir)
	} else {
		ms, err = runUntraced(r, budget)
	}
	if err != nil {
		fatal(err)
	}

	ck := r.checker()
	for _, f := range ck.failures {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", f)
	}
	ms.print(os.Stdout)
	fmt.Printf("failed_frac %.4f (%d of %d cells or runs)\n", ck.failedFrac(), ck.failed, ck.attempted)

	out := result{
		Correct:   ck.failed == 0,
		Attempted: ck.attempted,
		Failed:    ck.failed,
		Metrics:   ms.values(),
	}
	if err := writeRecord(*outDir, w.name, *seed, *trace, host, out, ms); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// measurePass runs one pass and adds the Go allocator's and the kernel's
// view of its memory. Every pass starts from a collected heap, so no pass
// pays for the garbage of the one before.
func measurePass(r runner, tr *tracer) (*passStats, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps, err := r.pass(tr)
	if err != nil {
		return nil, err
	}
	ps.rssPeakMB = peakRSSMB()
	runtime.ReadMemStats(&after)
	ps.allocBytes = after.TotalAlloc - before.TotalAlloc
	ps.mallocs = after.Mallocs - before.Mallocs
	ps.gcs = after.NumGC - before.NumGC
	return ps, nil
}

// setupReps is how many cold set-ups a run times; setup_s is their median.
const setupReps = 5

// minPasses is the fewest measured passes a run makes, however short its
// budget.
const minPasses = 3

// runUntraced measures the end-to-end metrics: setupReps set-ups, then
// passes until the budget is spent. Times are the process's CPU seconds,
// which a shared host's steal time does not inflate; wall times are
// printed beside them but not reported as metrics.
func runUntraced(r runner, budget time.Duration) (metricSet, error) {
	var setups, setupWalls []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		sw := startWatch()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall, cpu := sw.read()
		setups = append(setups, cpu)
		setupWalls = append(setupWalls, wall)
	}
	var passes []*passStats
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < budget {
		ps, err := measurePass(r, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		fmt.Printf("pass %d: cpu %.4f s, wall %.4f s, %.0f events per CPU s, %.1f MB allocated, %.1f MB peak RSS, p50 %.4g ms, p99 %.4g ms\n",
			len(passes), ps.cpu, ps.wall, float64(ps.events)/ps.cpu, float64(ps.allocBytes)/1e6, ps.rssPeakMB, ps.p50, ps.p99)
	}

	var cpu, epc, wall, eps, alloc, rss, p50, p99 []float64
	for _, ps := range passes {
		cpu = append(cpu, ps.cpu)
		epc = append(epc, float64(ps.events)/ps.cpu)
		wall = append(wall, ps.wall)
		eps = append(eps, float64(ps.events)/ps.wall)
		alloc = append(alloc, float64(ps.allocBytes)/1e6)
		rss = append(rss, ps.rssPeakMB)
		p50 = append(p50, ps.p50)
		p99 = append(p99, ps.p99)
	}
	n := len(passes)
	units := passes[0].units
	ms := metricSet{
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, process CPU seconds", setupReps)},
		{"cpu_s", median(cpu), "s", fmt.Sprintf("median of %d passes, process CPU seconds", n)},
		{"events_per_cpu_s", median(epc), "1/s", fmt.Sprintf("median of %d passes, %d source events each", n, passes[0].events)},
		{"alloc_mb", median(alloc), "MB", fmt.Sprintf("median of %d passes", n)},
		{"rss_peak_mb", median(rss), "MB", fmt.Sprintf("median of %d passes, each from a collected heap", n)},
	}
	// Wall time is printed but not gated: a shared host's steal time and
	// the pool's critical path move it by more than any usable bound
	// between runs.
	fmt.Printf("wall: set-up %.4g s, pass %.4g s, %.0f events/s: medians over %d set-ups and %d passes (not gated)\n",
		median(setupWalls), median(wall), median(eps), setupReps, n)
	// Latency is printed but not gated: on a shared host the open-loop
	// source's timer wakes late by a share of a millisecond that swings
	// with the host's load, and stalls of a few milliseconds land in the
	// tail, so both quantiles spread wider across runs than any usable
	// bound. Traced runs report them among the per-layer figures.
	fmt.Printf("latency_p50_ms %g ms, latency_p99_ms %g ms: medians over %d passes of each pass's quantiles over %d units (not gated)\n",
		median(p50), median(p99), n, units)
	return ms, nil
}

// baselinePasses is how many untraced passes a traced run makes first.
const baselinePasses = 3

// tracedShare is the part of the budget the traced passes may use; the
// rest goes to the set-up, the baseline passes, the direct calls and the
// microtimings.
const tracedShare = 0.5

// runTraced measures the per-layer metrics: one set-up, untraced baseline
// passes, traced passes under the CPU profiler, the direct calls, and the
// layer microtimings.
func runTraced(name string, seed int64, r runner, budget time.Duration, outDir string) (metricSet, error) {
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var base, baseP50, baseP99 []float64
	for i := 0; i < baselinePasses; i++ {
		ps, err := measurePass(r, nil)
		if err != nil {
			return nil, err
		}
		base = append(base, ps.wall)
		baseP50 = append(baseP50, ps.p50)
		baseP99 = append(baseP99, ps.p99)
	}

	tag := fmt.Sprintf("%s-seed%d", name, seed)
	profPath := filepath.Join(outDir, "cpu-"+tag+".pprof")
	tr := newTracer()
	stop, err := startProfile(profPath)
	if err != nil {
		return nil, err
	}
	var traced []*passStats
	start := time.Now()
	for len(traced) < 1 || time.Since(start) < time.Duration(tracedShare*float64(budget)) {
		tr.beginPass()
		ps, err := measurePass(r, tr)
		if err != nil {
			_ = stop() // the pass's error is the one to report
			return nil, err
		}
		traced = append(traced, ps)
	}
	if err := stop(); err != nil {
		return nil, err
	}
	fold, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}

	tr.beginPass()
	if err := r.direct(tr); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, "spans-"+tag+".json")); err != nil {
		return nil, err
	}
	micro, err := microtimings(outDir, r.checker())
	if err != nil {
		return nil, err
	}

	last := traced[len(traced)-1]
	var walls []float64
	for _, ps := range traced {
		walls = append(walls, ps.wall)
	}
	ms := metricSet{}
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_s", fold.self[l], "s", fmt.Sprintf("%d of %d CPU samples over %d traced passes", fold.samples[l], fold.total, len(traced))})
	}
	ms = append(ms, tr.callMetrics()...)
	ms = append(ms, micro...)
	for _, c := range countMetrics {
		ms = append(ms, metric{c.name, last.counts[c.name], c.unit, "last traced pass"})
	}
	ms = append(ms,
		metric{"go.gc_cycles", float64(last.gcs), "count", "last traced pass"},
		metric{"go.allocs_per_event", float64(last.mallocs) / float64(last.allEvents), "count", "last traced pass"},
		metric{"latency_p50_ms", median(baseP50), "ms", fmt.Sprintf("median over %d untraced baseline passes of each pass's p50", len(baseP50))},
		metric{"latency_p99_ms", median(baseP99), "ms", fmt.Sprintf("median over %d untraced baseline passes of each pass's p99", len(baseP99))},
		metric{"trace.overhead_s", median(walls) - median(base), "s", fmt.Sprintf("median traced pass (%d) minus median untraced pass (%d)", len(walls), len(base))},
	)
	fmt.Printf("profile: %d samples, %.3f s CPU, every sample assigned to one layer; written to %s\n", fold.total, fold.totalSeconds, profPath)
	tr.printSummary(os.Stdout)
	return ms, nil
}

// countMetrics are the exact per-layer counts a pass reports; a pass
// leaves a count it has no such work for at zero.
var countMetrics = []struct{ name, unit string }{
	{"hw.charged_cycles", "cycles"},
	{"hw.qpi_bytes", "B"},
	{"engine.invocations", "count"},
	{"engine.edge_msgs", "count"},
	{"engine.acked_trees", "count"},
	{"jvm.minor_gcs", "count"},
	{"memo.simulated", "count"},
	{"memo.deduped", "count"},
	{"memo.hit_ratio", "ratio"},
	{"place.vectors_screened", "count"},
	{"place.searched_ratio", "ratio"},
	{"gen.lag_ms", "ms"},
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // how it was measured, with the sample count
}

type metricSet []metric

func (ms metricSet) print(w io.Writer) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-26s %16.6g %-7s %s\n", m.name, m.value, m.unit, m.note)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (ms metricSet) values() map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		out[m.name] = metricValue{m.value, m.unit}
	}
	return out
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeRecord stores the run's result with the host shape and build
// identity beside it, one file per (workload, seed, trace).
func writeRecord(dir, name string, seed int64, trace int, host hostInfo, res result, ms metricSet) error {
	notes := map[string]string{}
	for _, m := range ms {
		notes[m.name] = m.note
	}
	rec := struct {
		Schema   string            `json:"schema"`
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Trace    int               `json:"trace"`
		Time     string            `json:"time"`
		Host     hostInfo          `json:"host"`
		Result   result            `json:"result"`
		Notes    map[string]string `json:"notes"`
	}{"perfbench/v1", name, seed, trace, time.Now().UTC().Format(time.RFC3339), host, res, notes}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
