package engine

import (
	"streamscale/internal/hw"
	"streamscale/internal/sim"
)

// delivery is one sealed message awaiting space in its consumer's queue.
type delivery struct {
	c     *conn
	msg   Msg
	bytes int // tuple payload, for the per-byte delivery cost
}

type execStage int

const (
	stageRun execStage = iota
	stageFinish
	stageDone
)

// simExecutor is one executor thread in the simulated runtime: the shared
// executor core plus the simulated machine's side of it. It implements
// sim.Runner — the scheduler calls Step, and all work performed during
// the step is charged to the simulated machine in cycles — and it is the
// core's backend, whose cost hooks do the charging.
type simExecutor struct {
	executor
	rt *simRuntime

	in *simQueue

	thread  *sim.Thread
	curCore int

	// costs accumulates this executor's Table II charges for the run.
	costs    hw.CostVec
	consumed sim.Cycles // cycles consumed in the current step
	stepAt   sim.Cycles // kernel time at step start

	stateBase   uint64
	stateSocket int
	scratchBase uint64
	scratchSize int
	classAddr   uint64
	prepared    bool
	srcDone     bool
	stage       execStage

	// pending holds sealed messages not yet pushed; sent counts the
	// pushed prefix. Both reset once everything is out, so a blocked
	// executor resumes where it stopped.
	pending []delivery
	sent    int
	// slabs holds batch slabs consumers have drained and handed back.
	slabs [][]Tuple

	procCycles sim.Cycles
	firstTuple sim.Cycles // wall span of the executor's active period
	lastTuple  sim.Cycles

	// nextEmit is the next arrival instant under open-loop source pacing.
	nextEmit sim.Cycles

	nextBarrier sim.Cycles
	barrierID   int64

	// traceInvoke marks the current invocation's batch as trace-sampled.
	traceInvoke bool
}

func newSimExecutor(rt *simRuntime, n *Node, index, global int) *simExecutor {
	e := &simExecutor{rt: rt, stateSocket: -1}
	e.init(e, &rt.ecfg, n, index, global, rt.cfg.Seed+int64(global)*7919+11)
	return e
}

// now returns the current simulated instant within this step.
func (e *simExecutor) now() sim.Cycles { return e.stepAt + e.consumed }

// Step implements sim.Runner.
func (e *simExecutor) Step(quantum sim.Cycles) (sim.Cycles, sim.Disposition) {
	e.consumed = 0
	e.stepAt = e.rt.kernel.Now()
	e.base = int64(e.stepAt)
	if !e.prepared {
		e.prepare()
	}
	if !e.flushPending() {
		return e.consumed, sim.Blocked
	}
	if e.stage == stageFinish {
		return e.completeFinish()
	}
	for e.consumed < quantum {
		if e.src != nil {
			if e.srcDone {
				return e.beginFinish()
			}
			if rate := e.rt.cfg.SourceRate; rate > 0 && e.now() < e.nextEmit {
				// Open-loop pacing: sleep until the next arrival instant.
				at := e.nextEmit
				th := e.thread
				e.rt.kernel.At(at, func() { e.rt.sched.Wake(th) })
				return e.consumed, sim.Blocked
			}
			e.maybeEmitBarrier()
			before := e.srcEvents
			if !e.sourceInvocation() {
				e.srcDone = true
			}
			if rate := e.rt.cfg.SourceRate; rate > 0 {
				emitted := e.srcEvents - before
				gap := sim.Cycles(float64(emitted) / rate * float64(e.rt.cfg.Spec.ClockHz))
				if e.nextEmit == 0 {
					e.nextEmit = e.stepAt
				}
				e.nextEmit += gap
			}
		} else {
			msg, slot, ok := e.in.tryPop()
			if !ok {
				if e.eosSeen == e.nProducers {
					return e.beginFinish()
				}
				e.in.awaitData(e.thread)
				return e.consumed, sim.Blocked
			}
			e.access(e.in.slotAddr(slot), e.in.slotBytes)
			e.handleMsg(msg)
		}
		if !e.flushPending() {
			return e.consumed, sim.Blocked
		}
	}
	return e.consumed, sim.Yield
}

func (e *simExecutor) prepare() {
	e.prepared = true
	e.classAddr = e.rt.meta.ClassID(e.node.Name)
	// First-touch allocation of executor-private state on the socket the
	// thread happens to start on — exactly how an unaware JVM behaves.
	// Shared state is allocated once for the whole operator by whichever
	// executor prepares first.
	e.stateSocket = e.rt.machine.SocketOfCore(e.curCore)
	if p := &e.node.Profile; p.StateBytes > 0 {
		if p.SharedState {
			if base, ok := e.rt.sharedState[e.node.Name]; ok {
				e.stateBase = base
			} else {
				e.stateBase = e.allocRaw(p.StateBytes)
				e.rt.sharedState[e.node.Name] = e.stateBase
			}
		} else {
			e.stateBase = e.allocRaw(p.StateBytes)
		}
	}
	if e.src != nil {
		e.src.Prepare(e)
		if iv := e.rt.cfg.System.CheckpointInterval; iv > 0 {
			e.nextBarrier = iv
		}
	} else {
		e.op.Prepare(e)
	}
}

// allocRaw allocates long-lived (tenured) memory on the executor's current
// socket — operator state maps, windows, and similar structures that
// survive across tuples.
func (e *simExecutor) allocRaw(size int) uint64 {
	return e.rt.heap.AllocTenured(e.rt.machine.SocketOfCore(e.curCore), size)
}

// alloc allocates tuple/garbage memory, charging any GC pause triggered.
func (e *simExecutor) alloc(size int) uint64 {
	addr, pause := e.rt.heap.Alloc(e.rt.machine.SocketOfCore(e.curCore), size)
	if pause > 0 {
		e.consumed += pause
	}
	return addr
}

func (e *simExecutor) access(addr uint64, size int) {
	e.consumed += e.rt.machine.DataAccess(e.curCore, addr, size, e.now(), &e.costs)
}

func (e *simExecutor) write(addr uint64, size int) {
	e.consumed += e.rt.machine.DataWrite(e.curCore, addr, size, e.now(), &e.costs)
}

func (e *simExecutor) fetchRegion(r *codeRegion) {
	// Invocations take data-dependent paths: each executes a variable
	// extent of the region's code.
	bytes := r.bytes
	if bytes > 2048 {
		bytes = int(float64(bytes) * (0.55 + 0.45*e.rng.Float64()))
	}
	fp := e.rt.machine.NoteInvocation(e.curCore, r.id, bytes)
	e.rt.profile.NoteFootprint(fp)
	e.consumed += e.rt.machine.FetchCode(e.curCore, r.base, bytes, e.now(), &e.costs)
}

func (e *simExecutor) compute(uops, branches int) {
	mis := e.mispredicts(branches)
	e.consumed += e.rt.machine.Compute(uops, mis, &e.costs)
}

func (e *simExecutor) mispredicts(branches int) int {
	rate := e.rt.cfg.System.MispredictRate
	if branches <= 0 || rate <= 0 {
		return 0
	}
	exp := float64(branches) * rate
	mis := int(exp)
	if e.rng.Float64() < exp-float64(mis) {
		mis++
	}
	return mis
}

// chargeInvocationOverhead models one executor invocation's framework work:
// the platform hot path plus the operator's own code are fetched through
// the instruction hierarchy, and dispatch computation is charged.
func (e *simExecutor) chargeInvocationOverhead() {
	hot := e.rt.hotRegions
	uops := e.rt.cfg.System.UopsPerInvoke
	if e.node.System {
		// System operators (the acker) run a lean dispatch path: Storm's
		// acker is a minimal system bolt, not a full user executor.
		if len(hot) > 2 {
			hot = hot[:2]
		}
		uops /= 2
	}
	for _, r := range hot {
		e.fetchRegion(r)
	}
	e.fetchRegion(e.rt.userRegions[e.node.Name])
	e.compute(uops, 4)
	for i, r := range e.rt.coldRegions {
		if every := e.rt.coldEvery[i]; every > 0 && e.invocations%int64(every) == 0 {
			e.fetchRegion(r)
		}
	}
}

// chargeTupleOverhead models per-tuple framework and profile costs: the
// pass-by-reference payload dereference (possibly remote), invokevirtual
// metadata lookups, private state accesses, and computation.
func (e *simExecutor) chargeTupleOverhead(t *Tuple) {
	sys := &e.rt.cfg.System
	p := &e.node.Profile
	if t.Addr != 0 {
		e.access(t.Addr, int(t.Size))
	}
	for i := 0; i < sys.MetadataAccessesPerTuple; i++ {
		base := e.classAddr
		if i > 0 {
			base = e.rt.frameworkClasses[(i-1)%len(e.rt.frameworkClasses)]
		}
		e.access(base+uint64(e.rng.Intn(512))*8, 8)
	}
	for i := 0; i < p.StateAccessesPerTuple && p.StateBytes > 0; i++ {
		e.access(e.stateBase+uint64(e.rng.Intn(p.StateBytes/8))*8, 8)
	}
	e.compute(p.UopsPerTuple+sys.UopsPerTuple, p.BranchesPerTuple+sys.BranchesPerTuple)
	if p.ExtraAllocPerTuple > 0 {
		addr := e.alloc(p.ExtraAllocPerTuple)
		e.write(addr, min(p.ExtraAllocPerTuple, 64))
	}
}

// chargeEmitted charges writing a fresh tuple into the producer's local
// memory (Fig 3 step 1) and stamps its emission instant.
func (e *simExecutor) chargeEmitted(t *Tuple, uops, branches int) {
	t.Addr = e.alloc(int(t.Size))
	e.write(t.Addr, int(t.Size))
	e.compute(uops, branches)
	t.EmitAt = int64(e.now())
}

// handleMsg dispatches one popped message: EOS, barrier, or a data batch.
func (e *simExecutor) handleMsg(msg Msg) {
	if msg.EOS {
		e.eosSeen++
		return
	}
	if msg.Barrier != 0 {
		e.alignBarrier(msg.Barrier)
		return
	}
	defer e.recycle(msg)
	if limit, ok := e.rt.cfg.FailAfter[e.global]; ok && e.tuples >= limit {
		// Injected failure: the executor zombies — it keeps draining its
		// queue (so upstream backpressure resolves) but drops everything.
		e.tuples += int64(len(msg.Batch))
		e.compute(40, 1)
		return
	}
	start := e.consumed
	if tr := e.rt.tr; tr != nil {
		for i := range msg.Batch {
			if tr.Sampled(msg.Batch[i].Root) {
				e.traceInvoke = true
				if msg.EnqueuedAt > 0 {
					tr.QueueWait(e.global, msg.FromOp, e.node.Name,
						msg.Batch[i].Root, sim.Cycles(msg.EnqueuedAt), e.now())
				}
			}
		}
	}
	if e.tuples == 0 {
		e.firstTuple = e.stepAt + start
	}
	e.processBatch(msg)
	e.procCycles += e.consumed - start
	e.lastTuple = e.now()
}

// recycle hands a drained batch slab back to its producer's pool.
func (e *simExecutor) recycle(msg Msg) {
	clear(msg.Batch)
	p := e.rt.execs[msg.FromGlobal]
	p.slabs = append(p.slabs, msg.Batch[:0])
}

// flushPending pushes queued deliveries; false means blocked on a full
// consumer queue.
func (e *simExecutor) flushPending() bool {
	sys := &e.rt.cfg.System
	for ; e.sent < len(e.pending); e.sent++ {
		d := &e.pending[e.sent]
		q := e.rt.execs[d.c.To].in
		d.msg.EnqueuedAt = int64(e.now())
		slot, ok := q.tryPush(d.msg)
		if !ok {
			q.awaitSpace(e.thread)
			return false
		}
		e.write(q.slotAddr(slot), q.slotBytes)
		// Per-delivery framework cost: buffer claim/publish plus the
		// per-byte (de)serialization of the batch's payload.
		e.compute(sys.DeliveryUops+int(float64(d.bytes)*sys.DeliveryUopsPerByte), 3)
		if tr := e.rt.tr; tr != nil {
			for i := range d.msg.Batch {
				t := &d.msg.Batch[i]
				if tr.Sampled(t.Root) {
					// The consumer's queue ring lives on its home socket;
					// comparing it against the producer's current socket
					// marks cross-socket transfers (Fig 3 step 2).
					tr.Deliver(e.global, e.node.Name, e.rt.execs[d.c.To].node.Name,
						t.Root, sim.Cycles(t.EmitAt), e.now(),
						e.rt.machine.SocketOfCore(e.curCore), hw.HomeSocket(q.baseAddr))
				}
			}
		}
	}
	clear(e.pending)
	e.pending = e.pending[:0]
	e.sent = 0
	return true
}

// beginFinish runs the operator's flush and stages EOS broadcasts.
func (e *simExecutor) beginFinish() (sim.Cycles, sim.Disposition) {
	e.stage = stageFinish
	e.finish()
	if !e.flushPending() {
		return e.consumed, sim.Blocked
	}
	return e.completeFinish()
}

func (e *simExecutor) completeFinish() (sim.Cycles, sim.Disposition) {
	e.stage = stageDone
	if e.consumed == 0 {
		e.consumed = 1
	}
	return e.consumed, sim.Done
}

// maybeEmitBarrier injects a checkpoint barrier from a source executor.
func (e *simExecutor) maybeEmitBarrier() {
	iv := e.rt.cfg.System.CheckpointInterval
	if iv <= 0 || e.now() < e.nextBarrier {
		return
	}
	e.nextBarrier += iv
	e.barrierID++
	e.broadcastBarrier(e.barrierID)
	if tr := e.rt.tr; tr != nil {
		tr.Barrier(e.global, e.node.Name, e.barrierID, e.now())
	}
}

// The executor core's backend.

func (e *simExecutor) ticks() int64 { return int64(e.now()) }
func (e *simExecutor) stamp() int64 { return int64(e.now()) }

// newRoot draws from the run-wide root counter.
func (e *simExecutor) newRoot() int64 {
	e.rt.rootCtr++
	if tr := e.rt.tr; tr != nil {
		tr.SpoutEmit(e.rt.rootCtr)
	}
	return e.rt.rootCtr
}

func (e *simExecutor) slab(*conn) []Tuple {
	n := len(e.slabs)
	if n == 0 {
		return nil
	}
	s := e.slabs[n-1]
	e.slabs = e.slabs[:n-1]
	return s
}

func (e *simExecutor) send(c *conn, m Msg, bytes int) {
	e.pending = append(e.pending, delivery{c: c, msg: m, bytes: bytes})
}

func (e *simExecutor) chargeInvoke() {
	if !e.traceInvoke {
		e.chargeInvocationOverhead()
		return
	}
	e.traceInvoke = false
	start, pre := e.now(), e.costs
	e.chargeInvocationOverhead()
	e.rt.tr.Invoke(e.global, e.node.Name, start, e.now()-start, pre, e.costs)
}

func (e *simExecutor) tuple(t *Tuple) {
	tr := e.rt.tr
	if tr == nil || !tr.Sampled(t.Root) {
		e.chargeTupleOverhead(t)
		e.runTuple(t)
		return
	}
	start, pre := e.now(), e.costs
	e.chargeTupleOverhead(t)
	if e.isSink {
		e2e := e.now() - sim.Cycles(t.Born)
		if e2e < 0 {
			e2e = 0
		}
		tr.Sink(e.global, e.node.Name, t.Root, e.now(), e2e)
	}
	e.runTuple(t)
	tr.Execute(e.global, e.node.Name, t.Root, start, e.now()-start, pre, e.costs)
}

func (e *simExecutor) chargeEmit(t *Tuple) {
	e.chargeEmitted(t, e.node.Profile.UopsPerEmit, 3)
}

func (e *simExecutor) chargeAckEmit(t *Tuple) {
	e.chargeEmitted(t, e.node.Profile.UopsPerEmit+120, 2)
}

// snapshot charges a checkpoint of operator state at an aligned barrier.
func (e *simExecutor) snapshot(id int64) {
	p := &e.node.Profile
	sys := &e.rt.cfg.System
	snapUops := int(sys.SnapshotUopsPerStateByte * float64(p.StateBytes))
	e.compute(snapUops, 8)
	if p.StateBytes > 0 {
		// Sweep a quarter of the state working set (dirty regions).
		sweep := p.StateBytes / 4
		for off := 0; off < sweep; off += 256 {
			e.access(e.stateBase+uint64(off), 8)
		}
	}
	if tr := e.rt.tr; tr != nil {
		tr.Barrier(e.global, e.node.Name, id, e.now())
	}
}

// The cost-charging half of Context.

func (e *simExecutor) Work(uops, branches int) { e.compute(uops, branches) }

func (e *simExecutor) ScanState(bytes int) {
	if e.node.Profile.StateBytes <= 0 || bytes <= 0 {
		return
	}
	if max := e.node.Profile.StateBytes; bytes > max {
		bytes = max
	}
	e.consumed += e.rt.machine.StreamAccess(e.curCore, e.stateBase, bytes, e.now(), &e.costs)
}

func (e *simExecutor) ScanScratch(bytes int) {
	if bytes <= 0 {
		return
	}
	if bytes > e.scratchSize {
		e.scratchBase = e.allocRaw(bytes)
		e.scratchSize = bytes
	}
	e.consumed += e.rt.machine.StreamAccess(e.curCore, e.scratchBase, bytes, e.now(), &e.costs)
}

func (e *simExecutor) AccessState(bytes int) {
	p := &e.node.Profile
	if p.StateBytes <= 0 || bytes <= 0 {
		return
	}
	lines := (bytes + 63) / 64
	for i := 0; i < lines; i++ {
		e.access(e.stateBase+uint64(e.rng.Intn(p.StateBytes/8))*8, 8)
	}
}
