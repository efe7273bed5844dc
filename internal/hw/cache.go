package hw

// Cache is a set-associative cache with LRU replacement. Keys are block
// numbers (the caller chooses the granularity: 64 B lines for data, 256 B
// blocks for instructions, 4 KB pages for TLBs). The zero value is not
// usable; construct with NewCache.
//
// The model is the simulator's hottest code: every simulated memory access
// probes up to four levels, so its layout is chosen for the host memory a
// probe touches. All ways live in one set-major array of 16-byte entries
// (a 20-way LLC set spans five host cache lines), and a 3-byte header per
// set threads the set's filled ways into a doubly linked recency list. A
// lookup probes the list head (the MRU way) first, then scans only the
// ways filled since the last Reset; a hit moves its way to the head, and a
// miss takes a never-used way while the set still has one and the list
// tail otherwise, so the victim is found without a second pass. Stored
// tags are complemented block numbers, so the zero value of a way is
// "invalid" and of a header "empty": NewCache writes nothing, so on fresh
// memory the host never faults in the pages of sets a run does not touch.
type Cache struct {
	ways    []way    // set s is ways[s*assoc : (s+1)*assoc]
	sets    []setHdr // one recency list per set
	setMask uint64
	assoc   int

	blockBytes int // granularity CacheFor was sized with (0 if NewCache)

	hits      uint64
	misses    uint64
	evictions uint64

	// OnEvict, if non-nil, is called with each evicted block. The machine
	// uses this to keep the decoded-µop cache coherent with L1I.
	OnEvict func(block uint64)
}

type way struct {
	tag        uint64 // ^block, or 0 when the way holds nothing
	ver        uint32 // coherence version the copy was filled at
	next, prev uint8  // recency-list neighbours toward the tail / the head
}

// setHdr is a set's recency list over its first fill ways: head is the
// most recently used way, tail the least. Invalidated ways are moved to
// the tail, so the tail end of the list holds every invalid filled way.
// The links of head.prev and tail.next are never read.
type setHdr struct {
	head, tail uint8
	fill       uint8 // ways[0:fill] have been used since the last Reset
}

// NewCache builds a cache with the given number of sets and associativity.
// Sets must be a power of two, and the associativity at most 255 (the
// recency list links ways by byte index).
func NewCache(sets, assoc int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("hw: cache sets must be a positive power of two")
	}
	if assoc <= 0 {
		panic("hw: cache associativity must be positive")
	}
	if assoc > 255 {
		panic("hw: cache associativity must be at most 255")
	}
	return &Cache{
		ways:    make([]way, sets*assoc),
		sets:    make([]setHdr, sets),
		setMask: uint64(sets - 1),
		assoc:   assoc,
	}
}

// CacheFor builds a cache sized capacityBytes with blockBytes blocks and the
// given associativity. Because the set count must be a power of two, the
// requested capacity is rounded DOWN to the nearest power-of-two set count:
// a capacity whose set count is not a power of two can shed up to half the
// requested bytes (e.g. a 24 MB, 20-way, 64 B-line request yields 16384
// sets and only 20 MB effective). Check EffectiveBytes when sizing caches;
// every Table III level divides exactly and loses nothing.
func CacheFor(capacityBytes, blockBytes, assoc int) *Cache {
	blocks := capacityBytes / blockBytes
	sets := blocks / assoc
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c := NewCache(p, assoc)
	c.blockBytes = blockBytes
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// EffectiveBytes returns the capacity the cache actually indexes
// (sets x assoc x block bytes) after CacheFor's power-of-two set rounding.
// It returns 0 for caches built directly with NewCache, which have no byte
// granularity (e.g. TLBs keyed by page number).
func (c *Cache) EffectiveBytes() int {
	return c.Sets() * c.assoc * c.blockBytes
}

// locate returns block's set header, the index of the set's first way,
// and the stored form of its tag. Real keys never reach ^0 (data and code
// tags are addresses divided by the block size, < 2^49; pages < 2^36), so
// the stored tag is never 0.
func (c *Cache) locate(block uint64) (*setHdr, int, uint64) {
	si := block & c.setMask
	return &c.sets[si], int(si) * c.assoc, ^block
}

// view returns the ways of the set whose first way is at base.
func (c *Cache) view(base int) []way { return c.ways[base : base+c.assoc] }

// Access looks up a block, inserting it on miss (evicting LRU if needed),
// and reports whether it hit. Equivalent to AccessV with version 0.
//
//dsp:hotpath
func (c *Cache) Access(block uint64) bool { return c.AccessV(block, 0) }

// WriteAccessV is AccessV for a store that just bumped the line's version
// to ver: a copy at ver-1 belongs to this cache's core from its previous
// write or read and is upgraded in place (an M-state rewrite), counting as
// a hit.
//
//dsp:hotpath
func (c *Cache) WriteAccessV(block uint64, ver uint32) bool {
	h, base, tag := c.locate(block)
	if w := &c.ways[base+int(h.head)]; w.tag == tag {
		hit := w.ver == ver || w.ver == ver-1
		c.count(hit)
		w.ver = ver
		return hit
	}
	set := c.view(base)
	filled := set[:h.fill]
	for i := range filled {
		if w := &filled[i]; w.tag == tag {
			hit := w.ver == ver || w.ver == ver-1
			c.count(hit)
			w.ver = ver
			promote(h, set, uint8(i))
			return hit
		}
	}
	c.install(h, set, tag, ver)
	return false
}

// AccessV looks up a block requiring coherence version ver: a resident copy
// filled at an older version is stale (another core wrote the line since)
// and counts as a miss, refilled at ver. This is the model's lightweight
// stand-in for MESI invalidations.
//
//dsp:hotpath
func (c *Cache) AccessV(block uint64, ver uint32) bool {
	h, base, tag := c.locate(block)
	if w := &c.ways[base+int(h.head)]; w.tag == tag {
		hit := w.ver == ver
		c.count(hit)
		w.ver = ver
		return hit
	}
	set := c.view(base)
	filled := set[:h.fill]
	for i := range filled {
		if w := &filled[i]; w.tag == tag {
			hit := w.ver == ver
			c.count(hit)
			w.ver = ver
			promote(h, set, uint8(i))
			return hit
		}
	}
	c.install(h, set, tag, ver)
	return false
}

// Replace forcibly (re)installs a block as most recently used at version
// ver, counting a miss — observably equivalent to Invalidate(block)
// followed by AccessV(block, ver), in one set scan instead of two. The
// machine uses it on an L1I miss, where the decoded-µop entry must be
// dropped and immediately re-decoded. If the block was resident it is
// refreshed in place; the pair could land it on a different empty way, but
// way identity is unobservable (lookups are tag-keyed, the recency list
// orders ways by use, and a refill over an empty or self way never fires
// OnEvict).
//
//dsp:hotpath
func (c *Cache) Replace(block uint64, ver uint32) {
	h, base, tag := c.locate(block)
	set := c.view(base)
	filled := set[:h.fill]
	for i := range filled {
		if w := &filled[i]; w.tag == tag {
			c.misses++
			w.ver = ver
			promote(h, set, uint8(i))
			return
		}
	}
	c.install(h, set, tag, ver)
}

// count books one lookup as a hit or a miss.
//
//dsp:hotpath
func (c *Cache) count(hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// install fills an absent block into its set as the MRU way, counting a
// miss. The victim is a never-used way while the set has one, else the
// list tail: an invalid way if any filled way is invalid, the LRU block
// otherwise. That is exactly the choice of a scan for the smallest
// last-use tick with invalid ways at tick 0, up to which invalid way is
// taken, and that cannot be observed.
//
//dsp:hotpath
func (c *Cache) install(h *setHdr, set []way, tag uint64, ver uint32) {
	c.misses++
	i := h.tail
	if int(h.fill) < len(set) {
		// Link a fresh way in at the head. An empty set's zero header
		// already reads head = tail = 0, so way 0 needs no special case.
		i = h.fill
		h.fill++
		set[i].next = h.head
		set[h.head].prev = i
		h.head = i
	} else {
		if old := set[i].tag; old != 0 {
			c.evictions++
			if c.OnEvict != nil {
				c.OnEvict(^old)
			}
		}
		promote(h, set, i)
	}
	set[i].tag = tag
	set[i].ver = ver
}

// promote moves way i to the head (MRU end) of its set's recency list.
//
//dsp:hotpath
func promote(h *setHdr, set []way, i uint8) {
	if i == h.head {
		return
	}
	w := &set[i]
	if i == h.tail {
		h.tail = w.prev
	} else {
		set[w.next].prev = w.prev
		set[w.prev].next = w.next
	}
	w.next = h.head
	set[h.head].prev = i
	h.head = i
}

// Contains reports whether a block is resident without touching LRU state.
func (c *Cache) Contains(block uint64) bool {
	h, base, tag := c.locate(block)
	set := c.view(base)
	for _, w := range set[:h.fill] {
		if w.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes a block if present, moving its way to the tail of the
// recency list: once the set is full, it is the next victim.
func (c *Cache) Invalidate(block uint64) {
	h, base, tag := c.locate(block)
	set := c.view(base)
	filled := set[:h.fill]
	for i := range filled {
		if w := &filled[i]; w.tag == tag {
			w.tag = 0
			if j := uint8(i); j != h.tail {
				if j == h.head {
					h.head = w.next
				} else {
					set[w.prev].next = w.next
				}
				set[w.next].prev = w.prev
				set[h.tail].next = j
				w.prev = h.tail
				h.tail = j
			}
			return
		}
	}
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.ways)
	clear(c.sets)
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// Hits returns the number of hits observed.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses observed.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate returns misses / accesses (0 when no accesses).
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}
