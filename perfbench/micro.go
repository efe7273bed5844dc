package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamscale/internal/bench"
	"streamscale/internal/bench/memo"
	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/jvm"
	"streamscale/internal/metrics"
	"streamscale/internal/ring"
	"streamscale/internal/sim"
)

// microRounds is how many times each microtiming runs; the reported
// figure is the median round.
const microRounds = 5

// micro is one microtiming: prepare builds fresh state and returns the
// timed loop, which performs n operations.
type micro struct {
	metric  string
	n       int
	prepare func() func(n int)
}

// The synthetic streams are fixed: the same operations in the same order
// on every run, whatever the workload seed.
var micros = []micro{
	// Code fetch over a hot set of four 4 KB regions (fits the L1I).
	{"hw.fetch_code_ns", 200_000, func() func(int) {
		m := hw.NewMachine(hw.TableIII())
		var cv hw.CostVec
		var now sim.Cycles
		return func(n int) {
			for i := 0; i < n; i++ {
				now += m.FetchCode(0, hw.CodeBase+uint64(i&3)<<16, 4<<10, now, &cv)
			}
		}
	}},
	// Data reads over a 16 KB hot set homed on the reading core's socket.
	{"hw.data_access_ns", 1_000_000, func() func(int) {
		m := hw.NewMachine(hw.TableIII())
		var cv hw.CostVec
		var now sim.Cycles
		return func(n int) {
			for i := 0; i < n; i++ {
				now += m.DataAccess(0, hw.DataAddr(0, uint64(i&255)*hw.LineBytes), 8, now, &cv)
			}
		}
	}},
	// An L1-shaped cache probed round-robin over a working set that fits.
	{"hw.cache_hit_ns", 4_000_000, func() func(int) {
		c := hw.CacheFor(32<<10, 64, 8)
		return func(n int) {
			for i := 0; i < n; i++ {
				c.Access(uint64(i & 255))
			}
		}
	}},
	// The same cache swept cyclically over twice its capacity: under LRU
	// every access misses and evicts.
	{"hw.cache_sweep_ns", 4_000_000, func() func(int) {
		c := hw.CacheFor(32<<10, 64, 8)
		return func(n int) {
			for i := 0; i < n; i++ {
				c.Access(uint64(i & 1023))
			}
		}
	}},
	// Schedule one event and fire the earliest over a standing window of
	// 4096 pending events.
	{"sim.kernel_event_ns", 2_000_000, func() func(int) {
		k := sim.NewKernel()
		fn := func() {}
		for i := 0; i < 4096; i++ {
			k.At(sim.Cycles(i%257), fn)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				k.At(k.Now()+sim.Cycles(i%257+1), fn)
				k.Step()
			}
		}
	}},
	// Histogram observations of a fixed exponential stream.
	{"metrics.observe_ns", 4_000_000, func() func(int) {
		h := metrics.NewHistogram(0)
		rng := rand.New(rand.NewSource(1))
		vals := make([]float64, 4096)
		for i := range vals {
			vals[i] = rng.ExpFloat64() * 2
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				h.Observe(vals[i&4095])
			}
		}
	}},
	// Young-generation allocations of 64..176 bytes round-robin over four
	// sockets' heaps.
	{"jvm.alloc_ns", 4_000_000, func() func(int) {
		h := jvm.NewHeap(4, jvm.G1())
		return func(n int) {
			for i := 0; i < n; i++ {
				h.Alloc(i&3, 64+(i&7)*16)
			}
		}
	}},
}

// microtimings runs the fixed layer microtimings plus the ring hop and
// the memo key and disk timings; ck tallies the memo round trips' checks.
func microtimings(outDir string, ck *checker) (metricSet, error) {
	var ms metricSet
	for _, m := range micros {
		var rounds []float64
		for r := 0; r < microRounds; r++ {
			loop := m.prepare()
			t0 := time.Now()
			loop(m.n)
			rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(m.n))
		}
		ms = append(ms, metric{m.metric, median(rounds), "ns", fmt.Sprintf("median of %d rounds of %d operations", microRounds, m.n)})
	}
	hop, allocs := ringHop()
	ms = append(ms,
		metric{"ring.hop_ns", hop, "ns", fmt.Sprintf("median of %d rounds of %d producer-to-consumer hops", microRounds, ringHops)},
		metric{"ring.hop_allocs", allocs, "count", "allocations per hop over all rounds"},
	)
	mm, err := memoTimings(outDir, ck)
	if err != nil {
		return nil, err
	}
	return append(ms, mm...), nil
}

const ringHops = 1_000_000

// ringHop times values crossing an SPSC ring from a producer goroutine to
// the consumer, with the consumer parking when the ring runs empty, and
// counts the allocations made while values cross.
func ringHop() (nsPerHop, allocsPerHop float64) {
	var rounds []float64
	var mallocs uint64
	for r := 0; r < microRounds; r++ {
		q := ring.NewSPSC[int64](256, ring.NewWaiter())
		done := make(chan struct{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		go func() {
			defer close(done)
			for i := int64(0); i < ringHops; i++ {
				q.Push(i)
			}
		}()
		for i := 0; i < ringHops; i++ {
			q.Pop()
		}
		<-done
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/ringHops)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return median(rounds), float64(mallocs) / (microRounds * ringHops)
}

// memoCell is the small cell the memo timings key and store.
var memoCell = bench.Cell{App: "wc", System: "flink", Sockets: 1, EventScale: 0.1, Seed: 1}

// memoTimings times the memo layer: computing a cell's key, storing a
// result in a fresh disk cache, and loading it back in a fresh store.
func memoTimings(outDir string, ck *checker) (metricSet, error) {
	const keys = 20_000
	var keyRounds []float64
	for r := 0; r < microRounds; r++ {
		t0 := time.Now()
		for i := 0; i < keys; i++ {
			bench.CellKey(memoCell)
		}
		keyRounds = append(keyRounds, float64(time.Since(t0).Nanoseconds())/keys/1e3)
	}

	res, err := bench.Run(memoCell)
	if err != nil {
		return nil, err
	}
	canon := memoCell.Canonical()
	fp := memo.BuildFingerprint()
	var writes, hits []float64
	for r := 0; r < microRounds; r++ {
		dir := filepath.Join(outDir, fmt.Sprintf("memo-%d-%d", os.Getpid(), r))
		w, h, problems, err := diskRoundTrip(dir, fp, canon, res)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		ck.record("memo disk round trip", problems)
		writes = append(writes, w)
		hits = append(hits, h)
	}
	return metricSet{
		{"memo.key_us", median(keyRounds), "us", fmt.Sprintf("median of %d rounds of %d keys", microRounds, keys)},
		{"memo.disk_write_ms", median(writes), "ms", fmt.Sprintf("median of %d stores into a fresh cache directory", microRounds)},
		{"memo.disk_hit_ms", median(hits), "ms", fmt.Sprintf("median of %d loads by a fresh store", microRounds)},
	}, nil
}

// diskRoundTrip stores res under canon through one store attached to dir,
// then loads it through a second, returning both times in ms and the
// failed checks: the second store must serve res from disk.
func diskRoundTrip(dir, fp, canon string, res *engine.Result) (writeMs, hitMs float64, problems []string, err error) {
	w := memo.New(fp)
	if _, err := w.AttachDisk(dir); err != nil {
		return 0, 0, nil, err
	}
	t0 := time.Now()
	if _, err := w.Do(canon, func() (*engine.Result, error) { return res, nil }); err != nil {
		return 0, 0, nil, err
	}
	writeMs = float64(time.Since(t0).Nanoseconds()) / 1e6

	h := memo.New(fp)
	if _, err := h.AttachDisk(dir); err != nil {
		return 0, 0, nil, err
	}
	t0 = time.Now()
	got, err := h.Do(canon, func() (*engine.Result, error) { return res, nil })
	if err != nil {
		return 0, 0, nil, err
	}
	hitMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if st := h.Stats(); st.DiskHits != 1 {
		problems = append(problems, fmt.Sprintf("%d disk hits, want 1", st.DiskHits))
	}
	if digest(got) != digest(res) {
		problems = append(problems, fmt.Sprintf("loaded digest %s, stored %s", digest(got), digest(res)))
	}
	return writeMs, hitMs, problems, nil
}
