package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"streamscale/internal/bench"
	"streamscale/internal/engine"
)

// checker tallies output checks: each simulated cell or native run is one
// attempt, failed when any of its checks fails.
type checker struct {
	attempted, failed int
	failures          []string
}

// record counts one attempt; problems are its failed checks.
func (c *checker) record(label string, problems []string) {
	c.attempted++
	if len(problems) > 0 {
		c.failed++
		c.failures = append(c.failures, label+": "+strings.Join(problems, "; "))
	}
}

func (c *checker) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// digestQuantiles are the latency quantiles a cell digest covers.
var digestQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 1}

// digest is a deterministic fingerprint of a simulated cell's outputs:
// events, charged cycles, simulated seconds, the profile's cost vector and
// the latency quantiles. Two simulations of one cell must agree on it bit
// for bit.
func digest(r *engine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "src=%d sink=%d charged=%d elapsed=%x", r.SourceEvents, r.SinkEvents, r.ChargedCycles, math.Float64bits(r.ElapsedSeconds))
	for i, c := range r.Profile.Costs {
		fmt.Fprintf(&b, " c%d=%d", i, c)
	}
	for _, q := range digestQuantiles {
		fmt.Fprintf(&b, " q%v=%x", q, math.Float64bits(r.Latency.Quantile(q)))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// simCellProblems checks a simulated cell's invariants: every charged
// cycle is in the profile, and with acking on every source event's tuple
// tree completed.
func simCellProblems(r *engine.Result, ackOn bool) []string {
	var p []string
	if r.ChargedCycles != r.Profile.Costs.Total() {
		p = append(p, fmt.Sprintf("charged cycles %d != profile total %d", r.ChargedCycles, r.Profile.Costs.Total()))
	}
	if ackOn && r.AckerCompleted != r.SourceEvents {
		p = append(p, fmt.Sprintf("acked trees %d != source events %d", r.AckerCompleted, r.SourceEvents))
	}
	if r.SourceEvents <= 0 {
		p = append(p, "no source events")
	}
	return p
}

// sameAs checks a value against the first one seen under the same key:
// outputs must be identical across a run's repetitions.
type sameAs map[string]string

func (s sameAs) check(key, v string) []string {
	if first, ok := s[key]; ok && first != v {
		return []string{fmt.Sprintf("%s changed across repetitions: %s, first %s", key, v, first)}
	}
	s[key] = v
	return nil
}

// referenceSeed is the seed the stored reference outputs were made with.
const referenceSeed = 1

// reference holds the outputs of the default seed: per-cell digests, the
// joint-search winner and the native sink counts.
type reference struct {
	Digests map[string]string `json:"digests"`
	Winner  string            `json:"winner"`
	Sinks   map[string]int64  `json:"sinks"`
}

//go:embed reference.json
var referenceJSON []byte

// loadReference returns the stored reference, or nil for other seeds.
func loadReference(seed int64) (*reference, error) {
	if seed != referenceSeed {
		return nil, nil
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// matchRef checks got against the reference entry under key; a nil
// reference (another seed) checks nothing.
func (r *reference) matchDigest(key, got string) []string {
	if r == nil {
		return nil
	}
	if want, ok := r.Digests[key]; !ok || want != got {
		return []string{fmt.Sprintf("%s digest %s, reference %q", key, got, want)}
	}
	return nil
}

// printReference prints reference.json for the default seed: one pass of
// each simulated workload, and the wc oracle's sink counts.
func printReference(jobs int) error {
	ref := reference{Digests: map[string]string{}, Sinks: map[string]int64{}}
	lr := &lrStorm{jobs: jobs, cell: lrCell(referenceSeed)}
	bench.ResetMemo()
	p, err := lr.run(nil, lr.cell)
	if err != nil {
		return err
	}
	ref.Digests[cellLabel(lr.cell)] = digest(p.res)
	ref.Winner = p.winner
	bench.ResetMemo()
	out, err := bench.RunCells(flinkCells(referenceSeed), jobs)
	if err != nil {
		return err
	}
	for _, cr := range out {
		ref.Digests[cellLabel(cr.Cell)] = digest(cr.Res)
	}
	for _, n := range []int{closedEvents, openEvents} {
		ref.Sinks[fmt.Sprint(n)] = wcSinks(referenceSeed, n)
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
