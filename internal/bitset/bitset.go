// Package bitset holds the dense sets the adaptive hot path keys by small
// non-negative integers — microtask IDs and worker ordinals — in place of
// hash maps: a membership test is one shift and one mask.
package bitset

// Set is a set of non-negative integers, one bit each. The zero value is
// the empty set; Add grows it as needed.
type Set []uint64

// Add inserts i and reports whether it was absent.
func (s *Set) Add(i int) bool {
	w := i >> 6
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	m := uint64(1) << (i & 63)
	if (*s)[w]&m != 0 {
		return false
	}
	(*s)[w] |= m
	return true
}

// Has reports whether i is in the set; false for negative i.
func (s Set) Has(i int) bool {
	w := i >> 6
	return i >= 0 && w < len(s) && s[w]&(1<<(i&63)) != 0
}

// Reset empties the set, keeping its storage.
func (s Set) Reset() { clear(s) }

// List is a Set that also keeps its members in insertion order, so it can
// be walked and emptied in time proportional to its size rather than its
// range. The zero value is the empty list.
type List struct {
	set   Set
	items []int
}

// Add inserts i and reports whether it was absent.
func (l *List) Add(i int) bool {
	if !l.set.Add(i) {
		return false
	}
	l.items = append(l.items, i)
	return true
}

// Items returns the members in insertion order (shared; valid until the
// next Add or Reset).
func (l *List) Items() []int { return l.items }

// Len returns the number of members.
func (l *List) Len() int { return len(l.items) }

// Reset empties the list, keeping its storage.
func (l *List) Reset() {
	for _, i := range l.items {
		l.set[i>>6] = 0
	}
	l.items = l.items[:0]
}
