// Package freelist keeps a bounded number of idle objects for reuse.
//
// A List is what the executor's per-run scratches are recycled through in
// place of a sync.Pool. A sync.Pool lets the collector empty it, but only
// over two collections (its victim cache), and holds as many objects as
// were put in. So a heap measured after one collection still counts what
// the pool will free at the next, and a burst of concurrent runs leaves
// that many scratches behind. A List holds at most its capacity and never
// frees what it holds: the memory it can keep is its capacity times the
// largest object its callers put back, and it stays put, so successive
// heap measurements see the same objects.
package freelist

// List holds up to a fixed number of idle *T. The zero List holds none;
// use New. A List is safe for concurrent use.
type List[T any] struct {
	idle chan *T
}

// New returns an empty list that keeps at most n idle objects.
func New[T any](n int) *List[T] {
	return &List[T]{idle: make(chan *T, n)}
}

// Get returns an idle object, or a new zero T when none is idle. The
// caller owns it until it calls Put.
func (l *List[T]) Get() *T {
	select {
	case x := <-l.idle:
		return x
	default:
		return new(T)
	}
}

// Put keeps x for a later Get, or drops it when the list is full. The
// caller must not use x afterwards.
func (l *List[T]) Put(x *T) {
	select {
	case l.idle <- x:
	default:
	}
}
