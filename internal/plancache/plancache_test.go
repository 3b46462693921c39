package plancache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutAndLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get([]byte("a")); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get([]byte("b")); ok {
		t.Errorf("b survived eviction")
	}
	if _, ok := c.Get([]byte("a")); !ok {
		t.Errorf("a evicted despite being recently used")
	}
	if _, ok := c.Get([]byte("c")); !ok {
		t.Errorf("c missing")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 2 || st.Cap != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutRefreshKeepsSingleEntry(t *testing.T) {
	c := New(4)
	c.Put("k", 1)
	c.Put("k", 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get([]byte("k")); v.(int) != 2 {
		t.Errorf("refresh lost: got %v", v)
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c := New(8)
	c.Put("x", 1)
	c.Get([]byte("x"))
	c.Get([]byte("x"))
	c.Get([]byte("missing"))
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %g", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Errorf("empty hit rate != 0")
	}
	c.Purge()
	st = c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Len != 0 {
		t.Errorf("post-purge stats = %+v", st)
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := New(0).Stats().Cap; got != DefaultCapacity {
		t.Errorf("cap = %d, want %d", got, DefaultCapacity)
	}
}

// TestConcurrentAccess hammers one cache from many goroutines; run under
// -race it checks the locking discipline, and the capacity bound must hold
// throughout.
func TestConcurrentAccess(t *testing.T) {
	const goroutines, ops, capacity = 16, 500, 32
	c := New(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%64)
				if i%3 == 0 {
					c.Put(key, i)
				} else {
					c.Get([]byte(key))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > capacity {
		t.Errorf("len %d exceeds capacity %d", c.Len(), capacity)
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Errorf("no lookups recorded: %+v", st)
	}
}
