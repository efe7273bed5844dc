package engine

import "fmt"

// edgeRouter routes one producer stream to one consumer subscription,
// implementing the paper's non-blocking tuple batching (Algorithm 1): all
// tuples emitted during a single invocation are grouped into per-consumer
// buckets and emitted at the end of the invocation — no cross-invocation
// buffering, hence no added buffering delay. Buckets are reused across
// invocations, so steady-state routing allocates nothing.
type edgeRouter struct {
	group     Grouping
	consumers int
	fieldIdx  []int // resolved key field indices for fields grouping
	rr        int   // rotating cursor for shuffle grouping
	buckets   [][]Tuple
}

func newEdgeRouter(producer StreamSpec, sub Subscription, consumers int) *edgeRouter {
	switch sub.Group.Kind {
	case GroupShuffle, GroupFields, GroupGlobal, GroupAll:
	default:
		panic(fmt.Sprintf("engine: unknown grouping %v", sub.Group.Kind))
	}
	r := &edgeRouter{group: sub.Group, consumers: consumers, buckets: make([][]Tuple, consumers)}
	if sub.Group.Kind == GroupFields {
		r.fieldIdx = FieldIndices(producer, sub.Group.Fields)
	}
	return r
}

// route partitions the tuples of one invocation into per-consumer buckets,
// returned indexed by consumer executor and valid until the next call. The
// buckets may alias tuples, so callers copy what they keep. Shuffle
// assigns round-robin with a cursor that persists between invocations, so
// cumulative imbalance never exceeds one tuple. Fields grouping follows
// Algorithm 1: the new key is the hash of the combined grouping attributes
// modulo the consumer count, so tuples sharing original keys always share a
// destination, while tuples with different keys that map to the same
// destination ride the same batch.
//
//dsp:hotpath
func (r *edgeRouter) route(tuples []Tuple) [][]Tuple {
	b := r.buckets
	switch {
	case r.group.Kind == GroupAll:
		for c := range b {
			b[c] = tuples
		}
	case r.consumers == 1 || r.group.Kind == GroupGlobal:
		b[0] = tuples
	case r.group.Kind == GroupShuffle:
		for c := range b {
			b[c] = b[c][:0]
		}
		for i := range tuples {
			b[r.rr] = append(b[r.rr], tuples[i])
			r.rr++
			if r.rr == r.consumers {
				r.rr = 0
			}
		}
	default: // GroupFields
		for c := range b {
			b[c] = b[c][:0]
		}
		for i := range tuples {
			var h uint64
			if len(tuples[i].Values) == 0 {
				// Values-free ack tuple: the key is its root.
				h = hashAckRoot(tuples[i].Root)
			} else {
				h = HashFields(tuples[i].Values, r.fieldIdx)
			}
			c := int(h % uint64(r.consumers))
			b[c] = append(b[c], tuples[i])
		}
	}
	return b
}
