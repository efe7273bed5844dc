package engine_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamscale/internal/apps"
	"streamscale/internal/engine"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/sim_digests.golden")

const digestsPath = "testdata/sim_digests.golden"

type digestCell struct {
	name string
	app  string
	cfg  engine.SimConfig
}

// digestCells is the fixed cell set the golden file pins: every benchmark
// application on both engine profiles, unbatched and batched, plus one cell
// per run mode the plain grid does not reach (open-loop pacing, injected
// failure, explicit placement, frequent checkpoint barriers).
func digestCells() []digestCell {
	var cells []digestCell
	for _, app := range apps.BenchmarkNames() {
		for _, sys := range []engine.SystemProfile{engine.Storm(), engine.Flink()} {
			for _, batch := range []int{1, 8} {
				cells = append(cells, digestCell{
					name: fmt.Sprintf("%s/%s/S=%d", app, sys.Name, batch),
					app:  app,
					cfg:  engine.SimConfig{System: sys, BatchSize: batch, Sockets: 2, Seed: 5},
				})
			}
		}
	}
	flinkCkpt := engine.Flink()
	flinkCkpt.CheckpointInterval = 400_000
	cells = append(cells,
		digestCell{name: "wc/storm/open-loop", app: "wc",
			cfg: engine.SimConfig{System: engine.Storm(), BatchSize: 4, Sockets: 1, Seed: 5, SourceRate: 150_000}},
		digestCell{name: "wc/storm/fail-after", app: "wc",
			cfg: engine.SimConfig{System: engine.Storm(), Sockets: 1, Seed: 5, FailAfter: map[int]int64{2: 40}}},
		digestCell{name: "fd/flink/placement", app: "fd",
			cfg: engine.SimConfig{System: engine.Flink(), BatchSize: 2, Sockets: 2, Seed: 5,
				Placement: map[int]int{0: 1, 1: 0, 2: 1, 3: 0}}},
		digestCell{name: "sd/flink/checkpoint", app: "sd",
			cfg: engine.SimConfig{System: flinkCkpt, BatchSize: 2, Sockets: 1, Seed: 5}},
	)
	return cells
}

// simDigest hashes every deterministic output of a simulated run: counts,
// the cycle ledger, the Table II profile, each executor's and edge's
// account, acked trees, and the latency quantiles' exact bits.
func simDigest(r *engine.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "events %d %d cycles %d acked %d\n",
		r.SourceEvents, r.SinkEvents, r.ChargedCycles, r.AckerCompleted)
	fmt.Fprintf(h, "costs %v\n", r.Profile.Costs)
	for _, e := range r.Executors {
		fmt.Fprintf(h, "exec %s %d %d %d %d %x %v\n", e.Op, e.Index, e.Socket,
			e.Tuples, e.Invocations, math.Float64bits(e.MeanTupleMs), e.Costs)
	}
	for _, e := range r.Edges {
		fmt.Fprintf(h, "edge %d %d %d %d %d\n", e.From, e.To, e.Msgs, e.Tuples, e.Bytes)
	}
	fmt.Fprintf(h, "latency %x %x %x\n", math.Float64bits(r.Latency.Quantile(0.5)),
		math.Float64bits(r.Latency.Quantile(0.99)), math.Float64bits(r.Latency.Max()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSimDigestsGolden pins the simulator's output bit for bit on a small
// cell grid, so an executor or routing change that moves any simulated
// number fails in seconds instead of in a full report diff. Regenerate
// with `go test ./internal/engine -run TestSimDigestsGolden -update-digests`
// only for a deliberate model change.
func TestSimDigestsGolden(t *testing.T) {
	var got []string
	for _, c := range digestCells() {
		events := 300
		if c.app == "tm" {
			events = 12 // each tm event streams ~120 MB of simulated scratch
		}
		topo, err := apps.Build(c.app, apps.Config{Events: events, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.RunSim(topo, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, c.name+" "+simDigest(res))
	}
	if *updateDigests {
		if err := os.MkdirAll(filepath.Dir(digestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestsPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-digests)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cells, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
