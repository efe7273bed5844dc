package engine

import (
	"sync"
	"time"

	"streamscale/internal/metrics"
	"streamscale/internal/ring"
)

// The native runtime executes a topology with one goroutine per executor,
// connected by the lock-free SPSC rings of internal/ring rather than Go
// channels. Its data path is built around the same costs the paper's
// profiling identified — message passing, acking, batching — so the
// simulator's predicted effect ratios can be validated against real
// hardware (internal/bench ValidateNative):
//
//   - every producer→consumer executor pair owns a private SPSC ring;
//     a consumer drains its rings round-robin through an MPSC front
//   - batch slabs ([]Tuple) are recycled consumer→producer over a second
//     tiny ring per pair, so steady-state transfer does not allocate
//   - the shared executor core (executor.go) routes into reused buckets
//     and accumulates acks in a reused slice; Born timestamps are taken
//     once per source invocation, and the sink clock is read only when
//     the latency sampler fires
//   - backpressure is credit-based: a producer facing a full ring parks
//     on the ring's waiter and is woken by the consumer's next pop
//   - operator chaining (chaining.go) optionally fuses forwardable
//     operator pairs before the executor graph is built, removing the
//     queue hop entirely

// NativeConfig configures a run on the native (goroutine) runtime.
type NativeConfig struct {
	// System selects the engine profile; only its acking/batching plumbing
	// affects the native runtime (the cost model is simulation-only).
	System SystemProfile
	// BatchSize is the source batch size S of the paper's §VI-A;
	// 1 (or 0) disables batching.
	BatchSize int
	// QueueCap overrides the profile's executor queue capacity (messages
	// buffered per consumer, split across its producer rings).
	QueueCap int
	// Seed drives all per-executor randomness.
	Seed int64
	// SourceRate throttles each source executor to the given event rate
	// (events per wall-clock second). Zero runs sources closed-loop at full
	// speed; a nonzero rate yields open-loop latency at a fixed offered
	// load, with tuples stamped at their *scheduled* emission instant so
	// backpressure stalls stay inside the measured latency (coordinated-
	// omission correction), mirroring the simulator's SourceRate semantics.
	SourceRate float64
	// CoordinatedOmission re-enables the coordinated-omission bug for
	// ablation: open-loop tuples are stamped with the actual emission
	// instant instead of the scheduled one. Ignored when SourceRate is 0.
	CoordinatedOmission bool
	// LatencySampleEvery samples end-to-end latency every n-th sink tuple
	// (default 8, matching the simulator's cadence so the two runtimes
	// sample identical tuple positions; capped at 2^30 so countdown
	// arithmetic cannot overflow).
	LatencySampleEvery int
	// Chaining fuses forwardable operator pairs (ChainTopology) before
	// building the executor graph.
	Chaining bool
}

// maxLatencySampleEvery caps the sampling period; beyond this a run simply
// never samples, which is what an absurd config is asking for anyway.
const maxLatencySampleEvery = 1 << 30

func (c *NativeConfig) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = c.System.QueueCap
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.LatencySampleEvery <= 0 {
		c.LatencySampleEvery = 8
	}
	if c.LatencySampleEvery > maxLatencySampleEvery {
		c.LatencySampleEvery = maxLatencySampleEvery
	}
}

// RunNative executes the topology with real goroutines and lock-free ring
// queues and returns measured wall-clock results. It blocks until all
// sources are exhausted and the pipeline has fully drained.
func RunNative(t *Topology, cfg NativeConfig) (*Result, error) {
	cfg.fill()
	name := t.Name
	if cfg.Chaining {
		chained, _, err := ChainTopology(t)
		if err != nil {
			return nil, err
		}
		t = chained
	}
	xt, err := BuildExecTopology(t, cfg.System)
	if err != nil {
		return nil, err
	}
	rt := &nativeRuntime{cfg: cfg, topo: xt}
	rt.build()
	return rt.run(name)
}

type nativeRuntime struct {
	cfg  NativeConfig
	ecfg execConfig
	topo *Topology

	execs []*nativeExec
}

// nativeExec is one executor goroutine: the shared executor core plus the
// native transport. Its cost hooks are no-ops; the work is real.
type nativeExec struct {
	executor

	in      *ring.MPSC[Msg]
	inConns []*conn // parallel to in's lanes, for slab recycling

	// Open-loop pacing (SourceRate > 0): nextEmitNs is the wall instant
	// the next invocation may start; gapNs is the wall time per event.
	nextEmitNs int64
	gapNs      float64
	rootSeq    int64 // per-source root counter; IDs are global<<40|seq
}

func (rt *nativeRuntime) build() {
	cfg := &rt.cfg
	rt.ecfg = execConfig{
		batchSize:     cfg.BatchSize,
		ack:           cfg.System.AckEnabled,
		sourceRate:    cfg.SourceRate,
		coordOmission: cfg.CoordinatedOmission,
		sampleEvery:   cfg.LatencySampleEvery,
		hz:            1e9,
	}
	var cores []*executor
	global := 0
	for _, n := range rt.topo.Nodes() {
		for i := 0; i < n.Parallelism; i++ {
			e := &nativeExec{}
			e.init(e, &rt.ecfg, n, i, global, cfg.Seed+int64(global)*7919+1)
			if !n.IsSource() {
				e.in = ring.NewMPSC[Msg]()
			}
			rt.execs = append(rt.execs, e)
			cores = append(cores, &e.executor)
			global++
		}
	}

	wire(rt.topo, cores, func(to *executor) *conn {
		c := &conn{}
		ce := rt.execs[to.global]
		ce.inConns = append(ce.inConns, c)
		return c
	})

	// Ring sizing: QueueCap is the consumer's total message budget, split
	// across its producer executors, each of which gets its own SPSC lane.
	// The free ring matches the data ring's capacity and is pre-filled:
	// every slab that can be in flight has a recycling slot, and the slab
	// arena is allocated once here, so steady-state transfer allocates
	// nothing even before the first recycled slab comes back.
	slabCap := max(4*cfg.BatchSize, 16)
	for _, ce := range rt.execs {
		capMsgs := min(max(cfg.QueueCap/max(len(ce.inConns), 1), 2), maxConnMsgs)
		for _, c := range ce.inConns { // lane order
			c.data = ce.in.AddProducer(capMsgs)
			c.free = ring.NewSPSC[[]Tuple](capMsgs, nil)
			for c.free.TryPush(make([]Tuple, 0, slabCap)) {
			}
		}
	}
}

// maxConnMsgs caps one producer→consumer ring's depth. Beyond a few dozen
// in-flight batches, extra depth only adds latency and slab population —
// a consumer that far behind needs backpressure, not buffer.
const maxConnMsgs = 64

func (rt *nativeRuntime) run(app string) (*Result, error) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, e := range rt.execs {
		wg.Add(1)
		go func(e *nativeExec) {
			defer wg.Done()
			e.loop()
		}(e)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := &Result{
		App:            app,
		System:         rt.cfg.System.Name,
		ElapsedSeconds: elapsed,
		WallSeconds:    elapsed,
		Latency:        metrics.NewHistogram(1 << 16),
	}
	for _, e := range rt.execs {
		e.addTo(res)
	}
	return res, nil
}

// loop is one executor goroutine: sources run invocation after invocation
// until exhausted; operators pop batches from the MPSC front until every
// producer has delivered EOS on every subscription.
//
//dsp:hotpath
//dsplint:wallclock
func (e *nativeExec) loop() {
	if e.src != nil {
		e.src.Prepare(e)
		for e.paceInvocation() {
		}
	} else {
		e.op.Prepare(e)
		for e.eosSeen < e.nProducers {
			msg, lane := e.in.Pop()
			switch {
			case msg.EOS:
				e.eosSeen++
			case msg.Barrier != 0:
				e.alignBarrier(msg.Barrier)
			default:
				e.processBatch(msg)
				e.recycle(lane, msg.Batch)
			}
		}
	}
	e.base = time.Now().UnixNano()
	e.finish()
}

// paceInvocation runs one source invocation and returns false at source
// exhaustion. One clock read stamps every tuple born in the invocation
// (coarse Born): at batch sizes worth measuring, per-tuple timestamps are
// themselves a measurable cost. Under SourceRate the invocation first
// sleeps until its scheduled start, and the schedule then advances by the
// events actually emitted — the simulator's nextEmit pacing.
//
//dsp:hotpath
//dsplint:wallclock
func (e *nativeExec) paceInvocation() bool {
	now := time.Now().UnixNano()
	rate := e.cfg.sourceRate
	if rate > 0 {
		if e.gapNs == 0 {
			e.nextEmitNs = now
			e.gapNs = 1e9 / rate
		}
		for now < e.nextEmitNs {
			time.Sleep(time.Duration(e.nextEmitNs - now))
			now = time.Now().UnixNano()
		}
	}
	e.base = now
	before := e.srcEvents
	alive := e.sourceInvocation()
	if rate > 0 {
		e.nextEmitNs += int64(float64(e.srcEvents-before) * e.gapNs)
	}
	return alive
}

// recycle clears a drained batch slab and offers it back to the producer.
// Tuples were handed to the operator by value, so dropping the slab's
// references here is safe; if the free ring is full the slab goes to GC.
//
//dsp:hotpath
func (e *nativeExec) recycle(lane int, batch []Tuple) {
	clear(batch)
	e.inConns[lane].free.TryPush(batch[:0])
}

// The executor core's backend.

// ticks reads the wall clock; the core calls it only when the latency
// sampler fires.
//
//dsplint:wallclock
func (e *nativeExec) ticks() int64 { return time.Now().UnixNano() }

func (e *nativeExec) stamp() int64 { return e.base }

// newRoot draws from a per-executor sequence: IDs are unique across
// executors without a shared atomic counter.
func (e *nativeExec) newRoot() int64 {
	e.rootSeq++
	return int64(e.global+1)<<40 | e.rootSeq
}

// slab reuses a batch slab recycled over c's free ring when one is
// available, else allocates.
func (e *nativeExec) slab(c *conn) []Tuple {
	if s, ok := c.free.TryPop(); ok {
		return s
	}
	return make([]Tuple, 0, max(4*e.cfg.batchSize, 16))
}

// send pushes a sealed batch, blocking (and eventually parking) while the
// ring is full: this is where backpressure propagates upstream.
//
//dsp:hotpath
func (e *nativeExec) send(c *conn, m Msg, _ int) { c.data.Push(m) }

func (e *nativeExec) chargeInvoke()           {}
func (e *nativeExec) tuple(t *Tuple)          { e.runTuple(t) }
func (e *nativeExec) chargeEmit(*Tuple)       {}
func (e *nativeExec) chargeAckEmit(*Tuple)    {}
func (e *nativeExec) snapshot(int64)          {}
func (e *nativeExec) Work(uops, branches int) {}
func (e *nativeExec) AccessState(bytes int)   {}
func (e *nativeExec) ScanState(bytes int)     {}
func (e *nativeExec) ScanScratch(bytes int)   {}
