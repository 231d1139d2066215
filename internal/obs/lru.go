package obs

import "sync"

// LRU is a bounded map with least-recently-used eviction. Get and Put
// make an entry the most recently used, Peek reads without touching
// the order, and admitting a key past the bound evicts the least
// recently used entry; a repeated key overwrites in place without
// taking a slot. It is every keyed store of the serving stack: the
// plan cache, the resident delta bases, both decode memos, pestod's
// span dumps and the router's traces. Safe for concurrent use.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	byKey map[K]*lruNode[K, V]
	// root is the sentinel of a circular list: root.next is the most
	// recently used entry, root.prev the least.
	root      lruNode[K, V]
	limit     int
	evictions int64
}

type lruNode[K comparable, V any] struct {
	prev, next *lruNode[K, V]
	key        K
	val        V
}

// NewLRU builds an LRU holding at most limit entries (at least one).
func NewLRU[K comparable, V any](limit int) *LRU[K, V] {
	limit = max(limit, 1)
	l := &LRU[K, V]{byKey: make(map[K]*lruNode[K, V], limit), limit: limit}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

// Get reads the value stored under key and makes it the most recently
// used entry.
func (l *LRU[K, V]) Get(key K) (V, bool) { return l.find(key, true) }

// Peek reads the value stored under key without touching the order.
func (l *LRU[K, V]) Peek(key K) (V, bool) { return l.find(key, false) }

func (l *LRU[K, V]) find(key K, refresh bool) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.byKey[key]
	if !ok {
		return v, false
	}
	if refresh {
		l.link(l.unlink(n), &l.root)
	}
	return n.val, true
}

// Put stores v under key as the most recently used entry, evicting the
// least recently used one past the bound.
func (l *LRU[K, V]) Put(key K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n, ok := l.byKey[key]; ok {
		n.val = v
		l.link(l.unlink(n), &l.root)
		return
	}
	l.insert(key, v, &l.root)
}

// AddCold stores v under key as the least recently used entry unless
// key is present or the LRU is full, and reports whether it stored it.
// Restored state (a warm-sync import) enters this way, so it never
// evicts an entry that traffic touched: a full LRU refuses it and
// counts no eviction.
func (l *LRU[K, V]) AddCold(key K, v V) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byKey[key]; ok || len(l.byKey) >= l.limit {
		return false
	}
	l.insert(key, v, l.root.prev)
	return true
}

// ColdFirst calls fn on every entry, least recently used first,
// without touching the order. It walks a snapshot taken under the
// lock, so fn may call back into the LRU.
func (l *LRU[K, V]) ColdFirst(fn func(key K, v V)) {
	l.mu.Lock()
	snap := make([]lruNode[K, V], 0, len(l.byKey))
	for n := l.root.prev; n != &l.root; n = n.prev {
		snap = append(snap, lruNode[K, V]{key: n.key, val: n.val})
	}
	l.mu.Unlock()
	for _, n := range snap {
		fn(n.key, n.val)
	}
}

// Len reports the number of entries.
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byKey)
}

// Evictions reports how many entries the bound has evicted.
func (l *LRU[K, V]) Evictions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}

// insert links a new entry after at and evicts past the bound.
func (l *LRU[K, V]) insert(key K, v V, at *lruNode[K, V]) {
	n := &lruNode[K, V]{key: key, val: v}
	l.link(n, at)
	l.byKey[key] = n
	for len(l.byKey) > l.limit {
		delete(l.byKey, l.unlink(l.root.prev).key)
		l.evictions++
	}
}

// link places n right after at.
func (l *LRU[K, V]) link(n, at *lruNode[K, V]) {
	n.prev, n.next = at, at.next
	at.next.prev = n
	at.next = n
}

// unlink takes n out of the list and returns it.
func (l *LRU[K, V]) unlink(n *lruNode[K, V]) *lruNode[K, V] {
	n.prev.next = n.next
	n.next.prev = n.prev
	return n
}
