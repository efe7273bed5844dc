package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mkTuples(keys ...string) []Tuple {
	ts := make([]Tuple, len(keys))
	for i, k := range keys {
		ts[i] = Tuple{Values: []Value{k, i}}
	}
	return ts
}

var wordStream = Stream(DefaultStream, "word", "n")

// AddressedBatch is a batch of tuples routed to one consumer executor.
type AddressedBatch struct {
	Consumer int // consumer executor index within the consumer operator
	Tuples   []Tuple
}

// routeBatches routes one invocation's tuples and splits each consumer's
// bucket into fresh batches of at most batchCap tuples (<= 0: unbounded),
// in the ascending consumer order the executor core seals them in.
func routeBatches(r *edgeRouter, tuples []Tuple, batchCap int) []AddressedBatch {
	var out []AddressedBatch
	for c, b := range r.route(tuples) {
		for len(b) > 0 {
			n := len(b)
			if batchCap > 0 && n > batchCap {
				n = batchCap
			}
			out = append(out, AddressedBatch{Consumer: c, Tuples: append([]Tuple(nil), b[:n]...)})
			b = b[n:]
		}
	}
	return out
}

func fieldsRouter(consumers int) *edgeRouter {
	return newEdgeRouter(wordStream, Subscription{Group: Fields("word")}, consumers)
}

func TestFieldsRoutingSameKeySameConsumer(t *testing.T) {
	r := fieldsRouter(3)
	batches := routeBatches(r, mkTuples("a", "b", "a", "c", "a", "b"), 0)
	dest := map[string]int{}
	for _, b := range batches {
		for _, tu := range b.Tuples {
			w := tu.Values[0].(string)
			if prev, ok := dest[w]; ok && prev != b.Consumer {
				t.Fatalf("key %q routed to consumers %d and %d", w, prev, b.Consumer)
			}
			dest[w] = b.Consumer
		}
	}
	// Per Algorithm 1, one batch per destination (no cap): at most 3.
	if len(batches) > 3 {
		t.Fatalf("%d batches for 3 consumers, want <= 3", len(batches))
	}
}

func TestFieldsRoutingStableAcrossInvocations(t *testing.T) {
	r1 := fieldsRouter(4)
	r2 := fieldsRouter(4)
	b1 := routeBatches(r1, mkTuples("x"), 0)
	b2 := routeBatches(r2, mkTuples("x", "y", "x"), 0)
	var c1, c2 = -1, -1
	c1 = b1[0].Consumer
	for _, b := range b2 {
		for _, tu := range b.Tuples {
			if tu.Values[0].(string) == "x" {
				c2 = b.Consumer
			}
		}
	}
	if c1 != c2 {
		t.Fatalf("key routed to %d then %d across invocations", c1, c2)
	}
}

func TestShuffleRoutingBalancesBlocks(t *testing.T) {
	r := newEdgeRouter(wordStream, Subscription{Group: Shuffle()}, 2)
	counts := map[int]int{}
	for inv := 0; inv < 10; inv++ {
		for _, b := range routeBatches(r, mkTuples("a", "b", "c", "d"), 2) {
			if len(b.Tuples) != 2 {
				t.Fatalf("block size %d, want 2", len(b.Tuples))
			}
			counts[b.Consumer] += len(b.Tuples)
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("shuffle imbalance: %v", counts)
	}
}

func TestShuffleRotatesStartConsumer(t *testing.T) {
	r := newEdgeRouter(wordStream, Subscription{Group: Shuffle()}, 3)
	first := routeBatches(r, mkTuples("a"), 1)[0].Consumer
	second := routeBatches(r, mkTuples("a"), 1)[0].Consumer
	if first == second {
		t.Fatalf("consecutive single-tuple invocations hit the same consumer %d", first)
	}
}

func TestGlobalRoutingAllToZero(t *testing.T) {
	r := newEdgeRouter(wordStream, Subscription{Group: Global()}, 5)
	for _, b := range routeBatches(r, mkTuples("a", "b", "c"), 0) {
		if b.Consumer != 0 {
			t.Fatalf("global routed to %d", b.Consumer)
		}
	}
}

func TestAllRoutingReplicates(t *testing.T) {
	r := newEdgeRouter(wordStream, Subscription{Group: All()}, 3)
	batches := routeBatches(r, mkTuples("a", "b"), 0)
	got := map[int]int{}
	for _, b := range batches {
		got[b.Consumer] += len(b.Tuples)
	}
	for c := 0; c < 3; c++ {
		if got[c] != 2 {
			t.Fatalf("consumer %d got %d tuples, want 2", c, got[c])
		}
	}
}

func TestBatchCapSplits(t *testing.T) {
	r := newEdgeRouter(wordStream, Subscription{Group: Global()}, 1)
	batches := routeBatches(r, mkTuples("a", "b", "c", "d", "e"), 2)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3 (2+2+1)", len(batches))
	}
	if len(batches[2].Tuples) != 1 {
		t.Fatalf("last batch size %d, want 1", len(batches[2].Tuples))
	}
}

func TestEmptyRouteReturnsNil(t *testing.T) {
	r := fieldsRouter(3)
	if got := routeBatches(r, nil, 0); got != nil {
		t.Fatalf("routing no tuples produced %v", got)
	}
}

// Property (Algorithm 1 correctness): for any batch of keyed tuples and any
// consumer count, (1) every input tuple appears in exactly one output batch,
// (2) all tuples with equal keys land on the same consumer, and (3) the
// destination matches hash(key) mod n, i.e. agrees with unbatched fields
// grouping.
func TestFieldsRoutingProperty(t *testing.T) {
	f := func(raw []uint8, nc uint8) bool {
		consumers := int(nc%7) + 1
		keys := make([]string, len(raw))
		for i, b := range raw {
			keys[i] = string(rune('a' + b%16))
		}
		r := fieldsRouter(consumers)
		in := mkTuples(keys...)
		out := routeBatches(r, in, 0)

		seen := 0
		for _, b := range out {
			for _, tu := range b.Tuples {
				seen++
				k := tu.Values[0].(string)
				want := int(HashFields([]Value{k}, []int{0}) % uint64(consumers))
				if b.Consumer != want {
					return false
				}
			}
		}
		return seen == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: shuffle routing delivers every tuple exactly once and stays
// balanced within one block size across consumers over many invocations.
func TestShuffleRoutingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		consumers := rng.Intn(6) + 1
		capSize := rng.Intn(8) + 1
		r := newEdgeRouter(wordStream, Subscription{Group: Shuffle()}, consumers)
		counts := make([]int, consumers)
		total := 0
		for inv := 0; inv < 30; inv++ {
			n := rng.Intn(12)
			in := make([]Tuple, n)
			for i := range in {
				in[i] = Tuple{Values: []Value{"k", i}}
			}
			got := 0
			for _, b := range routeBatches(r, in, capSize) {
				counts[b.Consumer] += len(b.Tuples)
				got += len(b.Tuples)
			}
			if got != n {
				return false
			}
			total += n
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		_ = total
		return max-min <= capSize*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
