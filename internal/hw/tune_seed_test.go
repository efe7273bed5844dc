package hw

import "testing"

// seedCache is a frozen copy of the pre-PR1 array-of-structs cache model.
// It exists only as the measurement baseline for BenchmarkCacheAccessSeed:
// the way-hint acceptance numbers ("within 10% of seed", ">= 2x over
// seed") are ratios against this implementation measured in the same
// process, which cancels host frequency drift between runs.
type seedCache struct {
	sets    [][]seedWay
	setMask uint64
	assoc   int

	hits      uint64
	misses    uint64
	evictions uint64

	OnEvict func(block uint64)

	tick uint64
}

type seedWay struct {
	block uint64
	used  uint64
	ver   uint32
}

func newSeedCache(capacityBytes, blockBytes, assoc int) *seedCache {
	blocks := capacityBytes / blockBytes
	sets := blocks / assoc
	if sets == 0 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c := &seedCache{setMask: uint64(p - 1), assoc: assoc}
	c.sets = make([][]seedWay, p)
	for i := range c.sets {
		c.sets[i] = make([]seedWay, assoc)
	}
	return c
}

func (c *seedCache) AccessV(block uint64, ver uint32) bool {
	c.tick++
	set := c.sets[block&c.setMask]
	var victim *seedWay
	for i := range set {
		w := &set[i]
		if w.used != 0 && w.block == block {
			if w.ver == ver {
				w.used = c.tick
				c.hits++
				return true
			}
			c.misses++
			w.ver = ver
			w.used = c.tick
			return false
		}
		if victim == nil || w.used < victim.used {
			victim = w
		}
	}
	c.misses++
	if victim.used != 0 {
		c.evictions++
		if c.OnEvict != nil {
			c.OnEvict(victim.block)
		}
	}
	victim.block = block
	victim.used = c.tick
	victim.ver = ver
	return false
}

// BenchmarkCacheAccessSeed mirrors BenchmarkCacheAccess against the seed
// implementation so the two can be compared within one process.
func BenchmarkCacheAccessSeed(b *testing.B) {
	b.Run("repeat-heavy", func(b *testing.B) {
		c := newSeedCache(32<<10, 64, 8)
		const hot = 8
		for i := 0; i < hot; i++ {
			for j := 1; j < 8; j++ {
				c.AccessV(uint64(i+j*64), 0)
			}
			c.AccessV(uint64(i), 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i%hot), 0)
		}
	})
	b.Run("hit-heavy", func(b *testing.B) {
		c := newSeedCache(32<<10, 64, 8)
		const hot = 256
		for i := 0; i < hot; i++ {
			c.AccessV(uint64(i), 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i%hot), 0)
		}
	})
	b.Run("miss-heavy", func(b *testing.B) {
		c := newSeedCache(32<<10, 64, 8)
		const span = 1 << 20
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i)%span, 0)
		}
	})
	b.Run("llc-hit-heavy", func(b *testing.B) {
		c := newSeedCache(20<<20, 64, 20)
		hot := len(c.sets) * 10
		for i := 0; i < hot; i++ {
			c.AccessV(uint64(i), 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i%hot), 0)
		}
	})
	b.Run("llc-miss-heavy", func(b *testing.B) {
		c := newSeedCache(20<<20, 64, 20)
		const span = 1 << 22
		for i := 0; i < len(c.sets)*c.assoc; i++ {
			c.AccessV(span+uint64(i), 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i)%span, 0)
		}
	})
}
