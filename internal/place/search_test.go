package place

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// kthSmallest must return, after every push, exactly what the sort it
// replaced returned: sort.Float64s over every score pushed, index k-1.
func TestKthSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, 1e308}
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		b := newKthSmallest(k)
		var all []float64
		for n := 0; n < 60; n++ {
			s := float64(rng.Intn(20)) // duplicates are common
			if rng.Intn(10) == 0 {
				s = special[rng.Intn(len(special))]
			}
			b.push(s)
			all = append(all, s)

			want := 1e308
			if len(all) >= k {
				sorted := append([]float64(nil), all...)
				sort.Float64s(sorted)
				want = sorted[k-1]
			}
			got := b.bound()
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d k=%d after %v: bound %v, sort gives %v", trial, k, all, got, want)
			}
		}
	}
}
