package engine

import (
	"fmt"
	"time"

	"streamscale/internal/hw"
	"streamscale/internal/jvm"
	"streamscale/internal/metrics"
	"streamscale/internal/profiler"
	"streamscale/internal/sim"
	"streamscale/internal/trace"
)

// SimConfig configures a run on the simulated multi-socket machine.
type SimConfig struct {
	// System selects the engine profile (Storm or Flink).
	System SystemProfile
	// BatchSize is the source batch size S (§VI-A); 1 or 0 disables
	// batching.
	BatchSize int

	// Spec is the machine; zero value selects the paper's Table III server.
	Spec hw.MachineSpec
	// Sockets enables the first n sockets (0 = all). Cores, if nonzero,
	// further restricts to the first Cores cores — the paper's 1..8-core
	// sweep within one socket.
	Sockets int
	Cores   int

	// Placement maps executor global index -> socket. Executors absent
	// from the map (or all, when nil) float across all enabled cores, as
	// threads do without a NUMA-aware scheduler.
	Placement map[int]int

	// GC selects the collector model; zero value selects G1 with a young
	// generation scaled for simulation-length runs.
	GC jvm.Config

	// FailAfter injects executor failures: executor global index -> number
	// of input tuples after which the executor turns into a zombie that
	// drains its queue but neither processes, emits, nor acks. Storm's XOR
	// accounting then reports the lost tuple trees as incomplete
	// (AckerCompleted < SourceEvents) — the signal its replay logic keys
	// on.
	FailAfter map[int]int64

	// SourceRate throttles each source executor to the given event rate
	// (events per simulated second). Zero runs sources closed-loop at full
	// speed, as the paper's throughput experiments do; a nonzero rate
	// yields open-loop latency measurements at a fixed offered load.
	SourceRate float64

	// CoordinatedOmission re-enables the coordinated-omission bug for
	// ablation studies: open-loop sources stamp tuples with the *actual*
	// emission instant instead of the scheduled one, so queueing delay at
	// the throttled source (i.e. backpressure) is silently forgiven.
	// Leave false for honest open-loop latency. Ignored when SourceRate
	// is 0 — closed-loop runs have no arrival schedule to correct against.
	CoordinatedOmission bool

	// Seed drives all randomness.
	Seed int64
	// QueueCap overrides the profile's queue capacity.
	QueueCap int
	// LatencySampleEvery samples end-to-end latency every n-th sink tuple.
	LatencySampleEvery int
	// TimeLimit aborts the simulation after this many cycles (safety
	// net; 0 = one simulated hour).
	TimeLimit sim.Cycles

	// Trace, if non-nil, records a cycle-exact trace of the run (sampled
	// tuple span chains, scheduler timelines, queue depths, folded stall
	// stacks). All hooks are nil-guarded: a nil Trace costs nothing on the
	// simulation hot paths.
	Trace *trace.Tracer
}

func (c *SimConfig) fill() {
	if c.Spec.Sockets == 0 {
		c.Spec = hw.TableIII()
	}
	if c.Sockets <= 0 || c.Sockets > c.Spec.Sockets {
		c.Sockets = c.Spec.Sockets
	}
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
	if c.GC.YoungBytes == 0 {
		c.GC = jvm.G1()
	}
	if c.GC.YoungBytes >= 64<<20 {
		// Simulation runs process orders of magnitude fewer events than
		// the hour-long hardware runs; scale the young generation down so
		// collections actually occur and the allocation-to-collection
		// ratio (hence the GC overhead share) matches production behaviour.
		c.GC.YoungBytes = 2 << 20
	}
	if c.TimeLimit <= 0 {
		c.TimeLimit = sim.Cycles(c.Spec.ClockHz) * 3600
	}
}

// EnabledCores returns the core IDs the configuration enables.
func (c *SimConfig) EnabledCores() []int {
	n := c.Sockets * c.Spec.CoresPerSocket
	if c.Cores > 0 && c.Cores < n {
		n = c.Cores
	}
	cores := make([]int, n)
	for i := range cores {
		cores[i] = i
	}
	return cores
}

// EnabledSockets returns the socket IDs covered by the enabled cores.
func (c *SimConfig) EnabledSockets() []int {
	cores := c.EnabledCores()
	last := cores[len(cores)-1] / c.Spec.CoresPerSocket
	s := make([]int, last+1)
	for i := range s {
		s[i] = i
	}
	return s
}

// codeRegion is a materialized chunk of simulated code.
type codeRegion struct {
	id    uint32
	name  string
	base  uint64
	bytes int
}

// simRuntime holds the state of one simulated run.
type simRuntime struct {
	cfg  SimConfig
	topo *Topology

	kernel  *sim.Kernel
	sched   *sim.Scheduler
	machine *hw.Machine
	heap    *jvm.Heap
	meta    *jvm.Metaspace
	profile *profiler.Profile

	ecfg        execConfig
	execs       []*simExecutor
	sharedState map[string]uint64 // operator -> shared state base address

	hotRegions  []*codeRegion
	coldRegions []*codeRegion
	coldEvery   []int
	userRegions map[string]*codeRegion
	codeCursor  uint64
	regionCount uint32

	frameworkClasses []uint64

	rootCtr      int64
	enabledCores []int

	// tr mirrors cfg.Trace for the executors' nil-guarded trace hooks.
	tr *trace.Tracer
}

// RunSim executes the topology on the simulated machine and returns both
// performance results and the full processor-time profile.
//
// The time.Now pair below measures real wall time spent simulating (for
// Result.WallSeconds, a harness-side metric); simulated time comes only
// from the kernel clock.
//
//dsplint:wallclock
func RunSim(t *Topology, cfg SimConfig) (*Result, error) {
	start := time.Now()
	cfg.fill()
	xt, err := BuildExecTopology(t, cfg.System)
	if err != nil {
		return nil, err
	}
	rt := &simRuntime{cfg: cfg, topo: xt}
	if err := rt.build(); err != nil {
		return nil, err
	}
	res, err := rt.run(t.Name)
	if err != nil {
		return nil, err
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

func (rt *simRuntime) newRegion(name string, bytes int) *codeRegion {
	r := &codeRegion{
		id:    rt.regionCount,
		name:  name,
		base:  hw.CodeBase + rt.codeCursor,
		bytes: bytes,
	}
	rt.regionCount++
	// Pad between regions so they never share an instruction block.
	rt.codeCursor += uint64(bytes) + 4096
	return r
}

func (rt *simRuntime) build() error {
	cfg := &rt.cfg
	rt.kernel = sim.NewKernel()
	rt.sched = sim.NewScheduler(rt.kernel, cfg.Spec.TotalCores(), cfg.Spec.CoresPerSocket,
		sim.DefaultSchedulerConfig())
	rt.machine = hw.NewMachine(cfg.Spec)
	rt.heap = jvm.NewHeap(cfg.Spec.Sockets, cfg.GC)
	rt.meta = jvm.NewMetaspace(4096)
	rt.profile = profiler.New()
	rt.ecfg = execConfig{
		batchSize:     cfg.BatchSize,
		ack:           cfg.System.AckEnabled,
		sourceRate:    cfg.SourceRate,
		coordOmission: cfg.CoordinatedOmission,
		sampleEvery:   cfg.LatencySampleEvery,
		hz:            cfg.Spec.ClockHz,
	}
	rt.sharedState = make(map[string]uint64)
	rt.userRegions = make(map[string]*codeRegion)
	rt.enabledCores = cfg.EnabledCores()

	for _, r := range cfg.System.HotRegions {
		rt.hotRegions = append(rt.hotRegions, rt.newRegion("sys:"+r.Name, r.Bytes))
	}
	for _, r := range cfg.System.ColdRegions {
		rt.coldRegions = append(rt.coldRegions, rt.newRegion("cold:"+r.Name, r.Bytes))
		rt.coldEvery = append(rt.coldEvery, r.Every)
	}
	for _, cls := range []string{"Tuple", "Fields", "Collector"} {
		rt.frameworkClasses = append(rt.frameworkClasses, rt.meta.ClassID(cls))
	}

	sockets := cfg.EnabledSockets()
	var cores []*executor
	global := 0
	for _, n := range rt.topo.Nodes() {
		rt.userRegions[n.Name] = rt.newRegion("op:"+n.Name, n.Profile.CodeBytes)
		for i := 0; i < n.Parallelism; i++ {
			e := newSimExecutor(rt, n, i, global)
			// Input queue ring memory lives on the executor's socket if
			// placed, else on a deterministic enabled socket.
			qSocket := sockets[global%len(sockets)]
			if s, ok := cfg.Placement[global]; ok {
				qSocket = s
			}
			if !n.IsSource() {
				base := rt.heap.AllocTenured(qSocket, cfg.QueueCap*32)
				e.in = newSimQueue(cfg.QueueCap, base, rt.sched)
			}
			rt.execs = append(rt.execs, e)
			cores = append(cores, &e.executor)
			global++
		}
	}
	wire(rt.topo, cores, func(*executor) *conn { return &conn{} })
	// Spawn threads.
	for _, e := range rt.execs {
		affinity := rt.enabledCores
		if s, ok := cfg.Placement[e.global]; ok {
			affinity = intersect(rt.sched.CoresOnSockets([]int{s}), rt.enabledCores)
			if len(affinity) == 0 {
				return fmt.Errorf("engine: executor %d placed on disabled socket %d", e.global, s)
			}
		}
		name := fmt.Sprintf("%s[%d]", e.node.Name, e.index)
		e.thread = rt.sched.Spawn(name, e, affinity)
		e.thread.OnCoreChange = func(prev, next int) { e.curCore = next }
	}
	if tr := cfg.Trace; tr != nil {
		rt.tr = tr
		// Thread IDs are assigned in spawn order, which matches executor
		// global indices — span events and timeline tracks share tids.
		for _, e := range rt.execs {
			tr.NameThread(e.thread.ID, e.thread.Name)
		}
		rt.sched.OnSlice = func(t *sim.Thread, core int, start, dur sim.Cycles, d sim.Disposition) {
			tr.Slice(t.ID, t.Name, core, start, dur, d.String())
		}
		rt.armQueueSampler()
	}
	return nil
}

// armQueueSampler installs the queue-depth sampler as the kernel's
// after-event observer: at the first event boundary past each cadence
// interval it snapshots every input queue's depth. Observing at event
// boundaries (rather than via self-rescheduled events) keeps the tracer a
// pure observer — no extra heap events, so the kernel's seq ordering and
// final clock are byte-for-byte those of an untraced run.
func (rt *simRuntime) armQueueSampler() {
	cadence := rt.tr.QueueCadence()
	if cadence <= 0 {
		return
	}
	next := cadence
	rt.kernel.AfterEvent = func() {
		now := rt.kernel.Now()
		if now < next {
			return
		}
		for _, e := range rt.execs {
			if e.in != nil {
				rt.tr.QueueDepth(e.global, e.thread.Name, now, e.in.size())
			}
		}
		next = now + cadence
	}
}

func intersect(a, b []int) []int {
	in := map[int]bool{}
	for _, x := range b {
		in[x] = true
	}
	var out []int
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

func (rt *simRuntime) run(app string) (*Result, error) {
	if rt.tr != nil {
		rt.tr.Begin(app, rt.cfg.System.Name, rt.cfg.Spec.ClockHz)
	}
	rt.kernel.Run(rt.cfg.TimeLimit)
	if live := rt.sched.Live(); live > 0 {
		return nil, fmt.Errorf("engine: simulation stalled with %d live executors at %d cycles (deadlock or time limit)",
			live, rt.kernel.Now())
	}
	elapsed := rt.kernel.Now()
	clock := rt.cfg.Spec.ClockHz

	res := &Result{
		App:            app,
		System:         rt.cfg.System.Name,
		ElapsedSeconds: elapsed.Seconds(clock),
		Latency:        metrics.NewHistogram(1 << 16),
		Profile:        rt.profile,
		ChargedCycles:  rt.machine.ChargedCycles(),
		CPUUtil:        rt.sched.Utilization(rt.enabledCores),
		MemUtil:        rt.machine.DRAMUtilization(rt.cfg.EnabledSockets(), elapsed),
		QPIBytes:       rt.machine.QPIBytes(),
		MinorGCs:       rt.heap.MinorGCs(),
	}
	res.OperatorProfiles = map[string]*profiler.Profile{}
	for _, e := range rt.execs {
		rt.profile.Add(&e.costs)
		opProf := res.OperatorProfiles[e.node.Name]
		if opProf == nil {
			opProf = profiler.New()
			res.OperatorProfiles[e.node.Name] = opProf
		}
		opProf.Add(&e.costs)
		e.addTo(res)
		stat := &res.Executors[len(res.Executors)-1]
		stat.Socket = e.stateSocket
		stat.Costs.AddVec(&e.costs)
		if e.tuples > 0 {
			// "Process latency" per event, as Fig 10 reports it: the wall
			// time each event occupies at this executor, including the
			// waits imposed by time-sharing cores with other executors and
			// by remote memory stalls.
			span := e.lastTuple - e.firstTuple
			if span < e.procCycles {
				span = e.procCycles
			}
			stat.MeanTupleMs = sim.Cycles(int64(span) / e.tuples).Millis(clock)
		}
	}
	rt.profile.GCCycles = rt.heap.GCCycles()
	res.GCShare = rt.profile.GCShare()
	if rt.tr != nil {
		// Fold the executors' Table II charges per operator, in topology
		// node order (deterministic). The totals reconcile exactly against
		// the machine ledger: every charge path adds to both an executor's
		// CostVec and Machine.charged, and GC pauses are in neither.
		ops := make([]trace.OpCost, 0, len(rt.topo.Nodes()))
		for _, n := range rt.topo.Nodes() {
			oc := trace.OpCost{Op: n.Name}
			for _, e := range rt.execs {
				if e.node == n {
					oc.Costs.AddVec(&e.costs)
				}
			}
			ops = append(ops, oc)
		}
		rt.tr.Finish(res.ChargedCycles, ops)
	}
	return res, nil
}
