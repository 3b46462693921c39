package freelist

import (
	"sync"
	"testing"
)

// A list hands back what was put in, keeps no more than its capacity, and
// makes a fresh object when it is empty.
func TestListKeepsAtMostItsCapacity(t *testing.T) {
	l := New[int](2)
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c) // dropped: the list is full
	got := map[*int]bool{l.Get(): true, l.Get(): true}
	if !got[a] || !got[b] {
		t.Fatalf("Get returned %v, want the two objects put first", got)
	}
	if x := l.Get(); x == a || x == b || x == c || *x != 0 {
		t.Fatalf("Get on an empty list returned %p (%d), want a fresh zero object", x, *x)
	}
}

// Concurrent Gets never hand one object to two callers: a caller that got
// one in use would read another's mark, and the race detector would see
// the shared writes.
func TestListNeverSharesAnObject(t *testing.T) {
	l := New[int](4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				if *x != 0 {
					t.Errorf("Get returned an object in use (%d)", *x)
					return
				}
				*x = g + 1
				*x = 0
				l.Put(x)
			}
		}()
	}
	wg.Wait()
}
