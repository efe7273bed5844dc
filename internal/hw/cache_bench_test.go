package hw

import "testing"

// BenchmarkCacheAccess measures the per-lookup cost of the set-associative
// cache model under the three regimes the simulator lives in: a repeat-heavy
// mix (the same few blocks re-probed back to back, as the TLBs and L1D see
// from a tuple's metadata/state accesses — the MRU way-hint's home turf), a
// hit-heavy mix (hot working set smaller than the cache but cycled
// round-robin, so the hint never matches and every hit pays the way scan),
// and a miss-heavy mix (streaming a working set far larger than the cache,
// exercising the victim search on every access). The llc- regimes repeat
// the hit-heavy and miss-heavy mixes on the 20 MB, 20-way LLC shape, whose
// 5 MB+ of ways no longer fit the host's private caches: there the cost of
// a probe is the host memory it touches.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("repeat-heavy", func(b *testing.B) {
		c := CacheFor(32<<10, 64, 8) // L1D-shaped: 64 sets x 8 ways
		// One hot block per set across 8 sets, each behind seven colder
		// ways — a resident line lands on an arbitrary way, so a plain
		// scan pays mismatches before finding it, while the MRU hint
		// matches on the first probe regardless of way position.
		const hot = 8
		for i := 0; i < hot; i++ {
			for j := 1; j < 8; j++ {
				c.AccessV(uint64(i+j*64), 0)
			}
			c.AccessV(uint64(i), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i%hot), 0)
		}
	})
	b.Run("hit-heavy", func(b *testing.B) {
		c := CacheFor(32<<10, 64, 8) // L1D-shaped: 64 sets x 8 ways
		const hot = 256              // 16 KB working set: fits, ~4 ways/set
		for i := 0; i < hot; i++ {
			c.AccessV(uint64(i), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i%hot), 0)
		}
	})
	b.Run("miss-heavy", func(b *testing.B) {
		c := CacheFor(32<<10, 64, 8)
		const span = 1 << 20 // 64 MB of lines: every access evicts
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i)%span, 0)
		}
	})
	b.Run("llc-hit-heavy", func(b *testing.B) {
		c := CacheFor(20<<20, 64, 20) // LLC-shaped: 16384 sets x 20 ways
		hot := c.Sets() * 10          // half the capacity: ~10 ways/set
		for i := 0; i < hot; i++ {
			c.AccessV(uint64(i), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i%hot), 0)
		}
	})
	b.Run("llc-miss-heavy", func(b *testing.B) {
		c := CacheFor(20<<20, 64, 20)
		const span = 1 << 22 // 256 MB of lines: every access evicts
		// Fill every way first with blocks the stream never names, so
		// the timed loop evicts from its first access whatever b.N is.
		for i := 0; i < c.Sets()*c.Assoc(); i++ {
			c.AccessV(span+uint64(i), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessV(uint64(i)%span, 0)
		}
	})
}
