package engine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"streamscale/internal/metrics"
	"streamscale/internal/ring"
)

// The executor core: one executor thread of the paper's design — Algorithm
// 1's non-blocking batching, grouping-based routing and Storm's XOR acking
// — written once and shared by both runtimes. A runtime supplies only a
// backend: its clock, its root-ID scheme, the transport a sealed batch
// leaves on, and cost hooks that charge the simulated machine (no-ops on
// the native runtime). Scheduling and transport loops stay runtime-side.

// backend is what a runtime supplies to the executor core. The outer
// executor type implements it, including the cost-charging half of
// Context (Work, AccessState, ScanState, ScanScratch).
type backend interface {
	Context
	// ticks reads the executor's clock: simulated cycles or wall ns.
	ticks() int64
	// stamp is the Born time of a tuple emitted without an input anchor.
	stamp() int64
	// newRoot returns a fresh tuple-tree root ID for a source emission.
	newRoot() int64
	// slab returns an empty batch slab for a delivery over c.
	slab(c *conn) []Tuple
	// send hands a sealed message (bytes of tuple payload) to c's transport.
	send(c *conn, m Msg, bytes int)

	// Cost hooks.
	chargeInvoke()
	// tuple charges one input tuple's framework cost around runTuple.
	tuple(t *Tuple)
	chargeEmit(t *Tuple)
	chargeAckEmit(t *Tuple)
	snapshot(barrier int64)
}

// execConfig is the per-run configuration the executor core reads.
type execConfig struct {
	batchSize     int
	ack           bool    // Storm-style XOR tuple tracking
	sourceRate    float64 // open-loop events/s per source executor; 0 = closed loop
	coordOmission bool    // stamp open-loop tuples with actual, not scheduled, time
	sampleEvery   int     // latency sample period in sink tuples
	hz            int64   // clock ticks per second: cycles or ns
}

// conn is one producer-executor → consumer-executor link. Each distinct
// executor pair has exactly one, however many streams or subscriptions
// connect the operators. Its EdgeStat counts what crossed it; only the
// producer writes it. data and free are the native transport: a ring
// carrying messages downstream and one recycling drained slabs upstream.
type conn struct {
	EdgeStat
	data *ring.SPSC[Msg]
	free *ring.SPSC[[]Tuple]
}

// outEdge routes one output stream to one consumer subscription.
type outEdge struct {
	router   *edgeRouter
	stream   string
	conns    []*conn // indexed by consumer executor
	system   bool    // consumer is a system node (acker): no ack tracking
	batchCap int     // max tuples per delivered batch (<=0: unbounded)
}

// ackPair is one root's XOR contribution. The accumulator is a reused
// slice: accumAck merges runs of the same root, and flushAcks sorts and
// merges the rest, so an invocation neither hashes nor allocates.
type ackPair struct{ root, xor int64 }

// ackTupleBytes is the payload size of one (root, xor) ack tuple. Ack
// tuples carry the pair in Root and Edge, without boxed Values, but are
// sized as the two-field tuple they stand for.
var ackTupleBytes = int32(TupleBytes([]Value{int64(0), int64(0)}))

// executor is the state one executor thread shares across runtimes.
type executor struct {
	be     backend
	cfg    *execConfig
	node   *Node
	index  int
	global int

	op  Operator
	src Source
	rng *rand.Rand

	edges    [][]*outEdge // indexed by out-stream position in node.Streams
	outConns []*conn      // distinct downstream executors
	ackIdx   int          // position of AckStream in node.Streams, -1 if none
	tracking bool         // this executor XOR-tracks its tuples

	// buffers collects the current invocation's emissions per out stream.
	buffers [][]Tuple
	emitted int // tuples emitted this invocation (source batch target)
	acks    []ackPair

	// Context state for the tuple being processed.
	curInput *Tuple
	inOp     string
	inStream string

	nProducers  int // producer executors over all subscriptions
	eosSeen     int
	barrierSeen map[int64]int // checkpoint id -> producers aligned

	// base is the start of the current scheduling step (sim) or source
	// invocation (native). The open-loop intended-arrival schedule starts
	// at the first emitting one: tuple j is scheduled at base + j*bornStep
	// regardless of when backpressure let it out, and is stamped with that
	// instant (coordinated-omission correction). bornStep == 0 means the
	// schedule has not started.
	base      int64
	bornSched float64
	bornStep  float64

	latency  *metrics.Histogram
	isSink   bool
	sampleIn int // countdown to the next latency sample

	srcEvents   int64
	sinkN       int64
	tuples      int64 // input tuples processed
	invocations int64
}

func (e *executor) init(be backend, cfg *execConfig, n *Node, index, global int, seed int64) {
	*e = executor{
		be: be, cfg: cfg, node: n, index: index, global: global,
		rng:      rand.New(rand.NewSource(seed)),
		edges:    make([][]*outEdge, len(n.Streams)),
		buffers:  make([][]Tuple, len(n.Streams)),
		ackIdx:   streamIndex(n.Streams, AckStream),
		tracking: cfg.ack && !n.System,
		latency:  metrics.NewHistogram(1 << 14),
		isSink:   isSink(n),
		sampleIn: cfg.sampleEvery,
	}
	if n.IsSource() {
		e.src = n.NewSource()
	} else {
		e.op = n.NewOp()
	}
}

func streamIndex(streams []StreamSpec, name string) int {
	for i := range streams {
		if streams[i].Name == name {
			return i
		}
	}
	return -1
}

// isSink reports whether a node has no user output streams.
func isSink(n *Node) bool {
	for _, s := range n.Streams {
		if s.Name != AckStream {
			return false
		}
	}
	return !n.System
}

// wire connects every producer executor's output streams to the executors
// of its subscribers: one outEdge per (stream, subscription) and one conn
// per distinct executor pair, created by link(consumer) in first-use
// order. It also counts each consumer's producers, the quorum for EOS and
// barriers.
func wire(topo *Topology, execs []*executor, link func(to *executor) *conn) {
	byOp := make(map[string][]*executor)
	for _, e := range execs {
		byOp[e.node.Name] = append(byOp[e.node.Name], e)
	}
	conns := make(map[[2]int]*conn)
	for _, n := range topo.Nodes() {
		for _, ed := range topo.Consumers(n.Name) {
			ss, _ := n.OutStream(ed.Sub.Stream)
			si := streamIndex(n.Streams, ed.Sub.Stream)
			for _, pe := range byOp[n.Name] {
				oe := &outEdge{
					router:   newEdgeRouter(ss, ed.Sub, ed.Consumer.Parallelism),
					stream:   ed.Sub.Stream,
					system:   ed.Consumer.System,
					batchCap: 4 * pe.cfg.batchSize,
				}
				if ed.Sub.Stream == AckStream {
					oe.batchCap = 0 // ack batches may grow within an invocation
				}
				for _, ce := range byOp[ed.Consumer.Name] {
					key := [2]int{pe.global, ce.global}
					c := conns[key]
					if c == nil {
						c = link(ce)
						c.From, c.To = pe.global, ce.global
						conns[key] = c
						pe.outConns = append(pe.outConns, c)
					}
					oe.conns = append(oe.conns, c)
				}
				pe.edges[si] = append(pe.edges[si], oe)
			}
			for _, ce := range byOp[ed.Consumer.Name] {
				ce.nProducers += n.Parallelism
			}
		}
	}
}

// invoke counts one executor invocation and charges its framework cost.
func (e *executor) invoke() {
	e.invocations++
	e.be.chargeInvoke()
}

// sourceInvocation emits up to BatchSize tuples and ends the invocation;
// it returns false at source exhaustion.
//
//dsp:hotpath
func (e *executor) sourceInvocation() bool {
	e.invoke()
	e.emitted = 0
	alive := true
	for e.emitted < e.cfg.batchSize && alive {
		alive = e.src.Next(e.be)
	}
	e.endInvocation()
	return alive
}

// processBatch runs the operator over one data batch as one invocation,
// accumulating acks and sink observations inline, then seals the
// invocation's output batches.
//
//dsp:hotpath
func (e *executor) processBatch(msg Msg) {
	e.invoke()
	e.inOp, e.inStream = msg.FromOp, msg.Stream
	for i := range msg.Batch {
		t := &msg.Batch[i]
		e.curInput = t
		if e.tracking {
			e.accumAck(t.Root, t.Edge)
		}
		e.be.tuple(t)
	}
	e.curInput = nil
	e.tuples += int64(len(msg.Batch))
	e.endInvocation()
}

// runTuple hands one input tuple to the operator, observing it first at a
// sink.
//
//dsp:hotpath
func (e *executor) runTuple(t *Tuple) {
	if e.isSink {
		e.observeSink(t)
	}
	e.op.Process(e.be, *t)
}

// observeSink counts a sink tuple and samples its end-to-end latency on a
// countdown, so both runtimes sample the same tuple positions (N, 2N, ...)
// for the same config. Simulated execution windows overlap, and an
// open-loop source stamps the later tuples of a batch with scheduled
// instants still ahead of the clock, so a tuple can be observed before its
// Born; clamp at zero.
//
//dsp:hotpath
func (e *executor) observeSink(t *Tuple) {
	e.sinkN++
	e.sampleIn--
	if e.sampleIn <= 0 {
		e.sampleIn = e.cfg.sampleEvery
		lat := e.be.ticks() - t.Born
		if lat < 0 {
			lat = 0
		}
		e.latency.Observe(float64(lat) / float64(e.cfg.hz) * 1e3)
	}
}

// accumAck folds one (root, edge) pair into the invocation's XOR
// accumulator.
//
//dsp:hotpath
func (e *executor) accumAck(root, edge int64) {
	if root == 0 {
		return // unanchored tuple tree
	}
	if n := len(e.acks); n > 0 && e.acks[n-1].root == root {
		e.acks[n-1].xor ^= edge
		return
	}
	e.acks = append(e.acks, ackPair{root: root, xor: edge})
}

// endInvocation is the non-blocking batching boundary: everything emitted
// during the invocation is routed into per-consumer batches and delivered
// now, then the invocation's acks follow.
//
//dsp:hotpath
func (e *executor) endInvocation() {
	for si := range e.buffers {
		if si != e.ackIdx && len(e.buffers[si]) > 0 {
			e.routeStream(si)
		}
	}
	e.flushAcks()
}

// routeStream routes one stream's emit buffer over each of its edges and
// resets the buffer for reuse. Every consumer's share is sealed in
// ascending consumer order, in batches of at most the edge's cap; each
// delivered copy of a tracked tuple gets a fresh random edge ID.
//
//dsp:hotpath
func (e *executor) routeStream(si int) {
	buf := e.buffers[si]
	for _, ed := range e.edges[si] {
		track := e.tracking && !ed.system
		for c, b := range ed.router.route(buf) {
			for len(b) > 0 {
				n := len(b)
				if ed.batchCap > 0 && n > ed.batchCap {
					n = ed.batchCap
				}
				batch := e.be.slab(ed.conns[c])
				batch = append(batch, b[:n]...)
				b = b[n:]
				if track {
					for i := range batch {
						edge := e.rng.Int63()
						batch[i].Edge = edge
						e.accumAck(batch[i].Root, edge)
					}
				}
				e.deliver(ed.conns[c], Msg{
					FromGlobal: e.global, FromOp: e.node.Name,
					Stream: ed.stream, Batch: batch,
				})
			}
		}
	}
	clear(buf) // drop Tuple references; the backing array is reused
	e.buffers[si] = buf[:0]
}

// deliver counts a message on its conn and hands it to the transport.
//
//dsp:hotpath
func (e *executor) deliver(c *conn, m Msg) {
	bytes := 0
	for i := range m.Batch {
		bytes += int(m.Batch[i].Size)
	}
	c.Msgs++
	c.Tuples += int64(len(m.Batch))
	c.Bytes += int64(bytes)
	e.be.send(c, m, bytes)
}

func cmpAckRoot(a, b ackPair) int { return cmp.Compare(a.root, b.root) }

// flushAcks turns the invocation's XOR accumulator into one ack tuple per
// root, in ascending root order, on the __ack stream.
//
//dsp:hotpath
func (e *executor) flushAcks() {
	if len(e.acks) == 0 {
		return
	}
	slices.SortFunc(e.acks, cmpAckRoot)
	buf := e.buffers[e.ackIdx]
	for i := 0; i < len(e.acks); {
		p := e.acks[i]
		for i++; i < len(e.acks) && e.acks[i].root == p.root; i++ {
			p.xor ^= e.acks[i].xor
		}
		buf = append(buf, Tuple{Root: p.root, Edge: p.xor, Size: ackTupleBytes})
		e.be.chargeAckEmit(&buf[len(buf)-1])
	}
	e.buffers[e.ackIdx] = buf
	e.acks = e.acks[:0]
	e.routeStream(e.ackIdx)
}

// finish drains buffered operator state, then sends one EOS marker per
// subscription to every consumer executor.
func (e *executor) finish() {
	if f, ok := e.op.(Flusher); ok {
		e.curInput = nil
		e.invoke()
		f.Flush(e.be)
		e.endInvocation()
	}
	for si := range e.node.Streams {
		e.broadcast(si, Msg{EOS: true})
	}
}

// broadcast sends a copy of a control message to every consumer executor
// subscribed to stream si.
func (e *executor) broadcast(si int, m Msg) {
	m.FromGlobal, m.FromOp, m.Stream = e.global, e.node.Name, e.node.Streams[si].Name
	for _, ed := range e.edges[si] {
		for _, c := range ed.conns {
			e.deliver(c, m)
		}
	}
}

// broadcastBarrier forwards checkpoint barrier id on every data stream.
func (e *executor) broadcastBarrier(id int64) {
	for si := range e.node.Streams {
		if si != e.ackIdx {
			e.broadcast(si, Msg{Barrier: id})
		}
	}
}

// alignBarrier counts barrier id from one producer; once every producer's
// has arrived it snapshots state and forwards the barrier (Flink's
// aligned checkpointing).
func (e *executor) alignBarrier(id int64) {
	if e.barrierSeen == nil {
		e.barrierSeen = make(map[int64]int)
	}
	e.barrierSeen[id]++
	if e.barrierSeen[id] < e.nProducers {
		return
	}
	delete(e.barrierSeen, id)
	e.be.snapshot(id)
	e.broadcastBarrier(id)
}

// addTo folds the executor's counters into res: event totals, its latency
// samples (an exact bucket-count merge), acked trees, its ExecStat, and
// its outgoing edge traffic in ascending consumer order.
func (e *executor) addTo(res *Result) {
	res.SourceEvents += e.srcEvents
	res.SinkEvents += e.sinkN
	res.Latency.Merge(e.latency)
	res.Executors = append(res.Executors, ExecStat{
		Op: e.node.Name, Index: e.index, Socket: -1,
		Tuples: e.tuples, Invocations: e.invocations,
	})
	if a, ok := e.op.(*Acker); ok {
		res.AckerCompleted += a.Completed()
	}
	conns := slices.Clone(e.outConns)
	slices.SortFunc(conns, func(a, b *conn) int { return cmp.Compare(a.To, b.To) })
	for _, c := range conns {
		if c.Msgs > 0 {
			res.Edges = append(res.Edges, c.EdgeStat)
		}
	}
}

// Emit forwards to EmitTo on the default stream.
//
//dsp:hotpath
func (e *executor) Emit(values ...Value) { e.EmitTo(DefaultStream, values...) }

// EmitTo appends a tuple to the stream's emit buffer — the hottest
// user-facing call (every operator output passes through). The tuple
// inherits its input's root and Born; a source emission starts a new tree.
//
//dsp:hotpath
func (e *executor) EmitTo(stream string, values ...Value) {
	si := streamIndex(e.node.Streams, stream)
	if si < 0 {
		//dsplint:ignore hotalloc fatal-error path, never taken in steady state
		panic(fmt.Sprintf("engine: %q emits to undeclared stream %q", e.node.Name, stream))
	}
	t := Tuple{Values: values, Size: int32(TupleBytes(values))}
	if in := e.curInput; in != nil {
		t.Born, t.Root = in.Born, in.Root
	} else {
		t.Born = e.be.stamp()
		if e.src != nil {
			if rate := e.cfg.sourceRate; rate > 0 && !e.cfg.coordOmission && stream != AckStream {
				// Open-loop: stamp the scheduled emission instant, so a
				// backpressure stall at the throttled source stays inside
				// the measured latency instead of being forgiven.
				if e.bornStep == 0 {
					e.bornSched = float64(e.base)
					e.bornStep = float64(e.cfg.hz) / rate
				}
				t.Born = int64(e.bornSched)
				e.bornSched += e.bornStep
			}
			t.Root = e.be.newRoot()
		}
		// Non-source emissions without an input anchor (e.g. Flush) are
		// unanchored, as in Storm: Root stays 0 and is never ack-tracked.
	}
	// Charge in place: a pointer to a local passed through the backend
	// interface would move every tuple to the heap.
	e.buffers[si] = append(e.buffers[si], t)
	e.be.chargeEmit(&e.buffers[si][len(e.buffers[si])-1])
	e.emitted++
	if e.src != nil && stream != AckStream {
		e.srcEvents++
	}
}

// ExecutorID implements Context.
func (e *executor) ExecutorID() int { return e.index }

// Parallelism implements Context.
func (e *executor) Parallelism() int { return e.node.Parallelism }

// OperatorName implements Context.
func (e *executor) OperatorName() string { return e.node.Name }

// Rand implements Context.
func (e *executor) Rand() *rand.Rand { return e.rng }

// Input implements Context.
func (e *executor) Input() (string, string) { return e.inOp, e.inStream }
