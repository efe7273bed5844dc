package hw

import (
	"streamscale/internal/sim"
)

// Machine is the hardware state of one simulated server: per-core private
// caches and TLBs, per-socket LLCs and DRAM channels, and QPI links.
// A Machine is not safe for concurrent use; the discrete-event simulation
// drives it from a single goroutine.
type Machine struct {
	Spec    MachineSpec
	cores   []*coreHW
	sockets []*socketHW
	qpi     [][]*Channel // [from][to], nil on the diagonal

	iBlockBytes int
	pageShift   uint

	// versions holds per written data line its coherence version (a write
	// bumps it, so copies cached elsewhere become stale; see Cache.AccessV)
	// and the socket of the last writer (so a read miss can be served by a
	// dirty-copy forward instead of home memory).
	versions *lineVerTable

	// charged is the cycle-conservation ledger: every charging method
	// (dataAccess, FetchCode, StreamAccess, Compute) adds the cycles it
	// returns here as well as to the caller's CostVec, so ChargedCycles
	// can be reconciled against the profiler's per-bucket aggregate.
	charged sim.Cycles
}

type lineState struct {
	ver    uint32
	writer int8
}

type coreHW struct {
	id     int
	socket int

	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	itlb *Cache
	dtlb *Cache
	stlb *Cache
	uop  *Cache // decoded-µop cache, keyed by instruction block

	// Instruction-footprint tracking (Fig 9), indexed by function id (ids
	// are dense: the engine numbers its code regions from 0): the logical
	// sequence number of the function's last invocation on this core (0 =
	// never) and its hot-code size. Both grow on demand.
	seq     uint64
	lastInv []uint64
	fnSizes []int
}

type socketHW struct {
	id   int
	llc  *Cache
	dram *Channel
}

// NewMachine builds the hardware state for spec.
func NewMachine(spec MachineSpec) *Machine {
	m := &Machine{
		Spec:        spec,
		iBlockBytes: spec.L1I.BlockBytes,
		versions:    newLineVerTable(),
	}
	for s := 1 << 12; s < spec.PageBytes; s <<= 1 {
		m.pageShift++
	}
	m.pageShift += 12

	for sk := 0; sk < spec.Sockets; sk++ {
		m.sockets = append(m.sockets, &socketHW{
			id:   sk,
			llc:  CacheFor(spec.LLC.CapacityBytes, spec.LLC.BlockBytes, spec.LLC.Assoc),
			dram: NewChannel(spec.LocalBWBytesPerCycle),
		})
	}
	for c := 0; c < spec.TotalCores(); c++ {
		core := &coreHW{
			id:     c,
			socket: c / spec.CoresPerSocket,
			l1i:    CacheFor(spec.L1I.CapacityBytes, spec.L1I.BlockBytes, spec.L1I.Assoc),
			l1d:    CacheFor(spec.L1D.CapacityBytes, spec.L1D.BlockBytes, spec.L1D.Assoc),
			l2:     CacheFor(spec.L2.CapacityBytes, spec.L2.BlockBytes, spec.L2.Assoc),
			itlb:   NewCache(pow2Sets(spec.ITLB), spec.ITLB.Assoc),
			dtlb:   NewCache(pow2Sets(spec.DTLB), spec.DTLB.Assoc),
			stlb:   NewCache(pow2Sets(spec.STLB), spec.STLB.Assoc),
		}
		// The decoded-µop cache can be disabled (UopCacheBytes = 0) for the
		// D-ICache ablation: every fetch then pays legacy decode.
		if ways := spec.Decode.UopCacheBytes / spec.L1I.BlockBytes; ways > 0 {
			core.uop = NewCache(1, ways)
			// An L1I eviction invalidates the corresponding decoded µops.
			uop := core.uop
			core.l1i.OnEvict = func(block uint64) { uop.Invalidate(block) }
		}
		m.cores = append(m.cores, core)
	}
	m.qpi = make([][]*Channel, spec.Sockets)
	for i := range m.qpi {
		m.qpi[i] = make([]*Channel, spec.Sockets)
		for j := range m.qpi[i] {
			if i != j {
				m.qpi[i][j] = NewChannel(spec.QPIBWBytesPerCycle)
			}
		}
	}
	return m
}

func pow2Sets(t TLBSpec) int {
	sets := t.Entries / t.Assoc
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p
}

// SocketOfCore returns the socket a core belongs to.
func (m *Machine) SocketOfCore(core int) int { return m.cores[core].socket }

// DataAccess charges the cost of reading size bytes of data starting at
// addr from the given core at simulated time now, attributing stall cycles
// into out. It returns the total cycles charged.
func (m *Machine) DataAccess(core int, addr uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	return m.dataAccess(core, addr, size, false, now, out)
}

// DataWrite is DataAccess for a store: it additionally bumps each written
// line's coherence version, so copies cached by other cores become stale.
func (m *Machine) DataWrite(core int, addr uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	return m.dataAccess(core, addr, size, true, now, out)
}

// dataAccess walks the simulated memory hierarchy line by line — the
// single hottest loop in the model.
//
//dsp:hotpath
func (m *Machine) dataAccess(core int, addr uint64, size int, write bool, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	c := m.cores[core]
	mySock := c.socket
	spec := &m.Spec

	var total sim.Cycles
	first := addr &^ uint64(LineBytes-1)
	last := (addr + uint64(size) - 1) &^ uint64(LineBytes-1)
	// lastPage tracks the page the previous line resolved: consecutive
	// lines usually share it, and a re-probe of the page just translated
	// is a guaranteed TLB hit that charges nothing and leaves the TLB's
	// relative LRU order unchanged, so it is skipped outright.
	lastPage := ^uint64(0)
	for line := first; ; line += LineBytes {
		// Address translation.
		page := line >> m.pageShift
		if page != lastPage {
			lastPage = page
			if !c.dtlb.Access(page) {
				var cost sim.Cycles
				if c.stlb.Access(page) {
					cost = spec.Latency.STLBHit
				} else {
					cost = spec.Latency.PageWalk
				}
				out.Add(BeDTLB, cost)
				total += cost
			}
		}

		key := line / LineBytes
		st := m.versions.get(key)
		written := st.ver != 0
		if write {
			st.ver++
			st.writer = int8(mySock)
			m.versions.put(key, st)
		}
		var l1Hit, l2Hit, llcHit bool
		if write {
			l1Hit = c.l1d.WriteAccessV(key, st.ver)
			if !l1Hit {
				l2Hit = c.l2.WriteAccessV(key, st.ver)
				if !l2Hit {
					llcHit = m.sockets[mySock].llc.WriteAccessV(key, st.ver)
				}
			}
		} else {
			l1Hit = c.l1d.AccessV(key, st.ver)
			if !l1Hit {
				l2Hit = c.l2.AccessV(key, st.ver)
				if !l2Hit {
					llcHit = m.sockets[mySock].llc.AccessV(key, st.ver)
				}
			}
		}
		switch {
		case l1Hit:
			// L1 hit: latency hidden by the out-of-order engine.
		case l2Hit:
			out.Add(BeL1D, spec.Latency.L2)
			total += spec.Latency.L2
		case llcHit:
			out.Add(BeL2, spec.Latency.LLC)
			total += spec.Latency.LLC
		case written && int(st.writer) == mySock:
			// The current copy is dirty in a same-socket private cache:
			// an on-die cache-to-cache forward, served at LLC-like cost.
			cost := spec.Latency.LLC + 12
			out.Add(BeL2, cost)
			total += cost
		case written && int(st.writer) != mySock:
			// Dirty in another socket's caches: a QPI snoop forward.
			qwait := m.qpi[mySock][int(st.writer)].Transfer(now+total, LineBytes)
			cost := spec.Latency.RemoteDRAM + qwait
			out.Add(BeLLCRemote, cost)
			total += cost
		default:
			home := mySock
			if IsData(line) {
				home = HomeSocket(line)
			}
			if home == mySock {
				wait := m.sockets[home].dram.Transfer(now+total, LineBytes)
				cost := spec.Latency.LocalDRAM + wait
				out.Add(BeLLCLocal, cost)
				total += cost
			} else {
				qwait := m.qpi[mySock][home].Transfer(now+total, LineBytes)
				dwait := m.sockets[home].dram.Transfer(now+total+qwait, LineBytes)
				cost := spec.Latency.RemoteDRAM + qwait + dwait
				out.Add(BeLLCRemote, cost)
				total += cost
			}
		}
		if line == last {
			break
		}
	}
	m.charged += total
	return total
}

// FetchCode charges the cost of fetching and decoding a code region of the
// given size at base on core, at simulated time now. This models one pass
// over the region's hot path, as executed by a function invocation.
func (m *Machine) FetchCode(core int, base uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	c := m.cores[core]
	spec := &m.Spec
	ib := uint64(m.iBlockBytes)

	var total sim.Cycles
	first := base &^ (ib - 1)
	last := (base + uint64(size) - 1) &^ (ib - 1)
	// As in dataAccess: a page probe identical to the previous block's is
	// a guaranteed hit charging nothing, so it is skipped.
	lastPage := ^uint64(0)
	for block := first; ; block += ib {
		page := block >> m.pageShift
		if page != lastPage {
			lastPage = page
			if !c.itlb.Access(page) {
				var cost sim.Cycles
				if c.stlb.Access(page) {
					cost = spec.Latency.STLBHit
				} else {
					cost = spec.Latency.PageWalk
				}
				out.Add(FeITLB, cost)
				total += cost
			}
		}

		key := block / ib
		if c.l1i.Access(key) {
			if c.uop != nil && c.uop.Access(key) {
				// Served by the decoded-µop cache: fetch+decode skipped.
				if block == last {
					break
				}
				continue
			}
			// L1I hit, µop-cache miss: legacy decode.
			out.Add(FeILD, spec.Decode.ILDPerBlock)
			out.Add(FeIDQ, spec.Decode.IDQPerBlock)
			total += spec.Decode.ILDPerBlock + spec.Decode.IDQPerBlock
			if block == last {
				break
			}
			continue
		}

		// L1I miss: fetch from the unified hierarchy, invalidate the µop
		// cache entry, pay the decode-pipeline switch penalty, re-decode.
		var fetch sim.Cycles
		switch {
		case c.l2.Access(key):
			fetch = spec.Latency.L2
		case m.sockets[c.socket].llc.Access(key):
			fetch = spec.Latency.LLC
		default:
			wait := m.sockets[c.socket].dram.Transfer(now+total, m.iBlockBytes)
			fetch = spec.Latency.LocalDRAM + wait
		}
		out.Add(FeL1I, fetch)
		total += fetch

		out.Add(FeIDQ, spec.Decode.SwitchPenalty+spec.Decode.IDQPerBlock)
		out.Add(FeILD, spec.Decode.ILDPerBlock)
		total += spec.Decode.SwitchPenalty + spec.Decode.IDQPerBlock + spec.Decode.ILDPerBlock
		if c.uop != nil {
			c.uop.Replace(key, 0)
		}

		if block == last {
			break
		}
	}
	m.charged += total
	return total
}

// StreamAccess charges a sequential streaming sweep over a large region
// (e.g. a map-matching scan of a road-network table). Hardware prefetchers
// hide per-line latency on such sweeps, so the cost is bandwidth-dominated:
// the region's bytes are booked on the home memory channel (and QPI when
// remote) and the cycles are charged to the LLC-miss bucket. The sweep is
// treated as non-temporal: it does not pollute the cache models.
func (m *Machine) StreamAccess(core int, addr uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	c := m.cores[core]
	home := c.socket
	if IsData(addr) {
		home = HomeSocket(addr)
	}
	var total sim.Cycles
	streamCycles := sim.Cycles(float64(size) / m.Spec.LocalBWBytesPerCycle * 1.15)
	if home == c.socket {
		wait := m.sockets[home].dram.Transfer(now, size)
		total = streamCycles + wait
		out.Add(BeLLCLocal, total)
	} else {
		qwait := m.qpi[c.socket][home].Transfer(now, size)
		dwait := m.sockets[home].dram.Transfer(now+qwait, size)
		qpiCycles := sim.Cycles(float64(size) / m.Spec.QPIBWBytesPerCycle)
		total = streamCycles + qpiCycles + qwait + dwait
		out.Add(BeLLCRemote, total)
	}
	m.charged += total
	return total
}

// Compute charges uops of straight-line computation plus branch
// misprediction stalls and returns the cycles charged.
func (m *Machine) Compute(uops int, mispredicts int, out *CostVec) sim.Cycles {
	tc := sim.Cycles(float64(uops) * m.Spec.CyclesPerUop)
	if uops > 0 && tc < 1 {
		tc = 1
	}
	tbr := sim.Cycles(mispredicts) * m.Spec.MispredictPenalty
	out.Add(TC, tc)
	out.Add(TBr, tbr)
	m.charged += tc + tbr
	return tc + tbr
}

// ChargedCycles returns the conservation ledger: the total cycles returned
// by every charging method since the machine was built. Because each method
// attributes exactly the cycles it returns to cost-vector buckets, this
// must equal the sum over buckets of all CostVecs charged against this
// machine; package profiler's conservation test enforces the invariant
// end to end.
func (m *Machine) ChargedCycles() sim.Cycles { return m.charged }

// NoteInvocation records that function fn (with the given hot-code size in
// bytes) was invoked on core, and returns the instruction footprint — the
// bytes of other code executed on that core since fn's previous invocation.
// It returns -1 for the first invocation of fn on that core.
func (m *Machine) NoteInvocation(core int, fn uint32, size int) int {
	c := m.cores[core]
	if int(fn) >= len(c.lastInv) {
		c.growFns(int(fn) + 1)
	}
	c.seq++
	c.fnSizes[fn] = size
	footprint := -1
	if last := c.lastInv[fn]; last != 0 {
		// Sum the functions invoked since fn last was. fn's own entry
		// equals last, so fn never counts itself.
		footprint = 0
		for g, seq := range c.lastInv {
			if seq > last {
				footprint += c.fnSizes[g]
			}
		}
	}
	c.lastInv[fn] = c.seq
	return footprint
}

// growFns extends the per-function tables to hold ids below n.
func (c *coreHW) growFns(n int) {
	c.lastInv = append(c.lastInv, make([]uint64, n-len(c.lastInv))...)
	c.fnSizes = append(c.fnSizes, make([]int, n-len(c.fnSizes))...)
}

// DRAMUtilization returns the mean DRAM channel utilization over the given
// sockets (all sockets if ids is nil) for the elapsed time.
func (m *Machine) DRAMUtilization(ids []int, elapsed sim.Cycles) float64 {
	want := map[int]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var sum float64
	n := 0
	for _, s := range m.sockets {
		if len(ids) > 0 && !want[s.id] {
			continue
		}
		sum += s.dram.Utilization(elapsed)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// QPIBytes returns total bytes moved over all QPI links.
func (m *Machine) QPIBytes() uint64 {
	var b uint64
	for i := range m.qpi {
		for j := range m.qpi[i] {
			if m.qpi[i][j] != nil {
				b += m.qpi[i][j].Bytes()
			}
		}
	}
	return b
}

// DRAMBytes returns total bytes read from the given socket's memory.
func (m *Machine) DRAMBytes(socket int) uint64 { return m.sockets[socket].dram.Bytes() }

// L1IMissRate returns the aggregate L1I miss rate across cores.
func (m *Machine) L1IMissRate() float64 {
	var h, ms uint64
	for _, c := range m.cores {
		h += c.l1i.Hits()
		ms += c.l1i.Misses()
	}
	if h+ms == 0 {
		return 0
	}
	return float64(ms) / float64(h+ms)
}
