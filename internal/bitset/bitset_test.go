package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSetMatchesMap checks Set against a map over random insertions that
// cross word boundaries and grow the set, and over Reset.
func TestSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Set
	ref := map[int]bool{}
	for op := 0; op < 2000; op++ {
		if op%500 == 499 {
			s.Reset()
			clear(ref)
		}
		i := rng.Intn(300)
		if got := s.Add(i); got != !ref[i] {
			t.Fatalf("Add(%d) = %v with member %v", i, got, ref[i])
		}
		ref[i] = true
		for j := -1; j < 320; j++ {
			if s.Has(j) != ref[j] {
				t.Fatalf("op %d: Has(%d) = %v, want %v", op, j, s.Has(j), ref[j])
			}
		}
	}
}

// TestListKeepsInsertionOrder checks that List reports each member once,
// in insertion order, and that Reset empties it for reuse.
func TestListKeepsInsertionOrder(t *testing.T) {
	var l List
	for _, i := range []int{70, 3, 70, 129, 3, 0} {
		l.Add(i)
	}
	if want := []int{70, 3, 129, 0}; !slices.Equal(l.Items(), want) || l.Len() != len(want) {
		t.Fatalf("Items = %v, want %v", l.Items(), want)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Reset left %v", l.Items())
	}
	if !l.Add(70) || l.Add(70) || !slices.Equal(l.Items(), []int{70}) {
		t.Fatalf("after Reset: Items = %v", l.Items())
	}
}
