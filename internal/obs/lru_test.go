package obs

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestLRU drives a 3-entry LRU through one script per property and
// checks its keys, coldest first, and its eviction count after each.
func TestLRU(t *testing.T) {
	type step struct {
		op  string // put, get, peek, cold, refused
		key string
		val int
	}
	for _, c := range []struct {
		name      string
		steps     []step
		want      []string // keys, least recently used first
		evictions int64
	}{
		{
			name:  "bound evicts least recently used",
			steps: []step{{"put", "a", 1}, {"put", "b", 2}, {"put", "c", 3}, {"put", "d", 4}},
			want:  []string{"b", "c", "d"}, evictions: 1,
		},
		{
			name:  "get refreshes",
			steps: []step{{"put", "a", 1}, {"put", "b", 2}, {"put", "c", 3}, {"get", "a", 1}, {"put", "d", 4}},
			want:  []string{"c", "a", "d"}, evictions: 1,
		},
		{
			name:  "peek does not refresh",
			steps: []step{{"put", "a", 1}, {"put", "b", 2}, {"put", "c", 3}, {"peek", "a", 1}, {"put", "d", 4}},
			want:  []string{"b", "c", "d"}, evictions: 1,
		},
		{
			name:  "put overwrites in place and refreshes",
			steps: []step{{"put", "a", 1}, {"put", "b", 2}, {"put", "c", 3}, {"put", "a", 9}, {"get", "a", 9}},
			want:  []string{"b", "c", "a"},
		},
		{
			name:  "cold insert enters least recently used",
			steps: []step{{"put", "a", 1}, {"cold", "b", 2}, {"put", "c", 3}},
			want:  []string{"b", "a", "c"},
		},
		{
			name:  "cold insert into a full LRU is refused",
			steps: []step{{"put", "a", 1}, {"put", "b", 2}, {"put", "c", 3}, {"refused", "d", 4}, {"get", "a", 1}},
			want:  []string{"b", "c", "a"},
		},
		{
			name:  "cold insert leaves a present key alone",
			steps: []step{{"put", "a", 1}, {"put", "b", 2}, {"cold", "a", 7}, {"peek", "a", 1}},
			want:  []string{"a", "b"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := NewLRU[string, int](3)
			for _, s := range c.steps {
				switch s.op {
				case "put":
					l.Put(s.key, s.val)
				case "cold":
					_, present := l.Peek(s.key)
					if added := l.AddCold(s.key, s.val); added == present {
						t.Fatalf("AddCold(%q) = %v with the key present: %v", s.key, added, present)
					}
				case "refused":
					if l.AddCold(s.key, s.val) {
						t.Fatalf("AddCold(%q) into a full LRU stored it", s.key)
					}
				case "get", "peek":
					get := l.Get
					if s.op == "peek" {
						get = l.Peek
					}
					if v, ok := get(s.key); !ok || v != s.val {
						t.Fatalf("%s(%q) = %d, %v; want %d", s.op, s.key, v, ok, s.val)
					}
				}
			}
			var keys []string
			l.ColdFirst(func(k string, _ int) { keys = append(keys, k) })
			if !slices.Equal(keys, c.want) || l.Len() != len(c.want) {
				t.Fatalf("keys %v (Len %d), want %v", keys, l.Len(), c.want)
			}
			if got := l.Evictions(); got != c.evictions {
				t.Fatalf("evictions %d, want %d", got, c.evictions)
			}
		})
	}
}

// TestLRUConcurrent hammers one LRU from many goroutines with every
// operation, so that -race checks its locking; the bound and the
// eviction count must still add up afterwards.
func TestLRUConcurrent(t *testing.T) {
	const limit, goroutines, iters, keys = 8, 16, 500, 32
	l := NewLRU[string, int](limit)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprint((g*7 + i) % keys)
				switch i % 5 {
				case 0:
					l.Put(k, i)
				case 1:
					l.AddCold(k, i)
				case 2:
					l.Get(k)
				case 3:
					l.Peek(k)
				default:
					l.ColdFirst(func(string, int) {})
					l.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	l.ColdFirst(func(string, int) { n++ })
	if n != l.Len() || n > limit {
		t.Fatalf("%d entries listed, Len %d, bound %d", n, l.Len(), limit)
	}
	if l.Evictions() == 0 {
		t.Fatal("no evictions with more keys than the bound")
	}
}
