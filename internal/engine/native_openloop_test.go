package engine_test

import (
	"testing"

	"streamscale/internal/apps"
	"streamscale/internal/engine"
)

// TestNativeOpenLoopLatencyNonNegative: an open-loop batched source stamps
// each tuple with its scheduled arrival, which for the later tuples of a
// batch lies after the instant the batch actually leaves. The sink must
// clamp such latencies at zero, as the simulator does, instead of
// recording negative ones.
func TestNativeOpenLoopLatencyNonNegative(t *testing.T) {
	topo, err := apps.Build("wc", apps.Config{Events: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunNative(topo, engine.NativeConfig{
		System: engine.Flink(), BatchSize: 8, Seed: 3,
		SourceRate: 2000, LatencySampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if min, mean := res.Latency.Min(), res.Latency.Mean(); min < 0 || mean < 0 {
		t.Fatalf("negative latency: min %v ms, mean %v ms", min, mean)
	}
}
