package hw

import (
	"fmt"
	"testing"
)

// refCache is the reference model FuzzCacheEquivalence checks Cache
// against: per set, a map from resident block to its version and last-use
// tick, with the true LRU block (smallest tick) evicted when a full set
// takes a new block. It is deliberately naive so that it is obviously
// right; Cache must agree with it on every observable.
type refCache struct {
	mask      uint64
	assoc     int
	tick      uint64
	sets      []map[uint64]*refLine
	hits      uint64
	misses    uint64
	evictions uint64
	evicted   []uint64
}

type refLine struct {
	ver  uint32
	used uint64
}

func newRefCache(sets, assoc int) *refCache {
	r := &refCache{mask: uint64(sets - 1), assoc: assoc}
	r.Reset()
	return r
}

func (r *refCache) set(block uint64) map[uint64]*refLine { return r.sets[block&r.mask] }

func (r *refCache) insert(block uint64, ver uint32) {
	set := r.set(block)
	if len(set) == r.assoc {
		var lru uint64
		oldest := ^uint64(0)
		for b, l := range set {
			if l.used < oldest { // ticks are distinct: the minimum is unique
				lru, oldest = b, l.used
			}
		}
		delete(set, lru)
		r.evictions++
		r.evicted = append(r.evicted, lru)
	}
	set[block] = &refLine{ver: ver, used: r.tick}
}

func (r *refCache) AccessV(block uint64, ver uint32) bool {
	r.tick++
	if l, ok := r.set(block)[block]; ok {
		l.used = r.tick
		if l.ver == ver {
			r.hits++
			return true
		}
		r.misses++
		l.ver = ver
		return false
	}
	r.misses++
	r.insert(block, ver)
	return false
}

func (r *refCache) WriteAccessV(block uint64, ver uint32) bool {
	if l, ok := r.set(block)[block]; ok && (l.ver == ver || l.ver == ver-1) {
		r.tick++
		l.used = r.tick
		l.ver = ver
		r.hits++
		return true
	}
	return r.AccessV(block, ver)
}

func (r *refCache) Replace(block uint64, ver uint32) {
	r.tick++
	r.misses++
	if l, ok := r.set(block)[block]; ok {
		l.used = r.tick
		l.ver = ver
		return
	}
	r.insert(block, ver)
}

func (r *refCache) Invalidate(block uint64) { delete(r.set(block), block) }

func (r *refCache) Contains(block uint64) bool {
	_, ok := r.set(block)[block]
	return ok
}

func (r *refCache) Reset() {
	r.sets = make([]map[uint64]*refLine, r.mask+1)
	for i := range r.sets {
		r.sets[i] = map[uint64]*refLine{}
	}
	r.hits, r.misses, r.evictions, r.tick = 0, 0, 0, 0
}

// fuzzShapes are the cache shapes the simulator builds: the decoded-µop
// cache (one 12-way set), an L1, a TLB, and an LLC-like wide set.
var fuzzShapes = [...]struct{ sets, assoc int }{{1, 12}, {8, 8}, {16, 4}, {64, 20}}

// fuzzBlock maps an operand byte to a block. Its low two bits pick one of
// four sets and the rest one of 64 blocks in it, so every shape sees sets
// with more candidate blocks than ways; the high bit moves the block near
// the top of the key range real tags use (< 2^49).
func fuzzBlock(x byte, sets int) uint64 {
	b := uint64((x&0x7f)>>2)*uint64(sets) + uint64(x&3)
	if x&0x80 != 0 {
		b |= 1 << 48
	}
	return b
}

// fuzzVer maps an operand byte to a coherence version: small versions so
// that stale copies and ver-1 upgrades are common, plus the top version so
// that WriteAccessV's ver-1 wraps.
func fuzzVer(v byte) uint32 {
	if v&7 == 7 {
		return ^uint32(0)
	}
	return uint32(v & 3)
}

// FuzzCacheEquivalence replays a byte-encoded operation sequence against
// Cache and refCache and requires identical return values, hit, miss and
// eviction counts, and OnEvict block order after every operation. The
// first byte picks the shape; each following triple is (op, block, ver).
func FuzzCacheEquivalence(f *testing.F) {
	for shape := range fuzzShapes {
		seq := []byte{byte(shape)}
		// Fill past capacity, re-touch, write, invalidate, replace.
		for i := 0; i < 90; i++ {
			seq = append(seq, byte(i%16), byte(i*4), byte(i))
		}
		f.Add(seq)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := fuzzShapes[int(data[0])%len(fuzzShapes)]
		c := NewCache(shape.sets, shape.assoc)
		ref := newRefCache(shape.sets, shape.assoc)
		var evicted []uint64
		c.OnEvict = func(b uint64) { evicted = append(evicted, b) }

		ops := data[1:]
		for n := 0; n+3 <= len(ops); n += 3 {
			op := ops[n] % 16
			block := fuzzBlock(ops[n+1], shape.sets)
			ver := fuzzVer(ops[n+2])
			var got, want bool
			var name string
			switch {
			case op <= 4:
				name = "AccessV"
				got, want = c.AccessV(block, ver), ref.AccessV(block, ver)
			case op <= 8:
				name = "WriteAccessV"
				got, want = c.WriteAccessV(block, ver), ref.WriteAccessV(block, ver)
			case op <= 10:
				name = "Replace"
				c.Replace(block, ver)
				ref.Replace(block, ver)
			case op <= 12:
				name = "Invalidate"
				c.Invalidate(block)
				ref.Invalidate(block)
			case op <= 14:
				name = "Contains"
				got, want = c.Contains(block), ref.Contains(block)
			default:
				name = "Reset"
				c.Reset()
				ref.Reset()
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%dx%d op %d %s(%d, %d): %s", shape.sets, shape.assoc, n/3, name, block, ver, fmt.Sprintf(format, args...))
			}
			if got != want {
				fail("returned %v, reference %v", got, want)
			}
			if c.Hits() != ref.hits || c.Misses() != ref.misses || c.evictions != ref.evictions {
				fail("hits/misses/evictions = %d/%d/%d, reference %d/%d/%d",
					c.Hits(), c.Misses(), c.evictions, ref.hits, ref.misses, ref.evictions)
			}
			if len(evicted) != len(ref.evicted) ||
				len(evicted) > 0 && evicted[len(evicted)-1] != ref.evicted[len(ref.evicted)-1] {
				fail("OnEvict blocks %v, reference %v", evicted, ref.evicted)
			}
			if c.Contains(block) != ref.Contains(block) {
				fail("residency = %v, reference %v", c.Contains(block), ref.Contains(block))
			}
		}
		for x := 0; x < 256; x++ {
			b := fuzzBlock(byte(x), shape.sets)
			if c.Contains(b) != ref.Contains(b) {
				t.Fatalf("%dx%d end: residency of %d = %v, reference %v", shape.sets, shape.assoc, b, c.Contains(b), ref.Contains(b))
			}
		}
	})
}
