// Package slab carves objects out of chunks that are never moved or reused,
// so that a table of long-lived records costs a heap object per chunk, not
// per record, and a reader that took no lock can keep standing on a record
// its table has dropped.
package slab

// Slab hands out pointers into chunks of T that never move: each chunk is as
// large as everything carved before it, from Min up to Max. The zero value is
// ready to use; it is not safe for concurrent use.
type Slab[T any] struct {
	free []T
	n    int
}

// Min and Max bound the size of a chunk, in objects.
const Min, Max = 4, 128

// Carve returns a pointer to a zero T that no earlier call returned.
func (s *Slab[T]) Carve() *T {
	if len(s.free) == 0 {
		s.free = make([]T, min(max(s.n, Min), Max))
	}
	p := &s.free[0]
	s.free = s.free[1:]
	s.n++
	return p
}

// Carved returns how many objects the slab has handed out.
func (s *Slab[T]) Carved() int { return s.n }
