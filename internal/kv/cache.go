package kv

// byteCache is a map whose entries are charged a caller-given size
// against a byte budget. Inserting beyond the budget evicts arbitrary
// entries (map iteration order) until the new one fits; an entry larger
// than the whole budget, or any entry while the budget is zero or
// negative, is refused. The zero value is an empty, disabled cache. Not
// safe for concurrent use: Store guards its caches with Store.mu.
type byteCache[K comparable, V any] struct {
	budget int
	used   int
	m      map[K]sized[V]
}

// sized is one cache entry with the size it is charged.
type sized[V any] struct {
	v    V
	size int
}

func (c *byteCache[K, V]) get(k K) (V, bool) {
	e, ok := c.m[k]
	return e.v, ok
}

// put stores v under k, charged size bytes, replacing (and re-accounting)
// any entry already there. A refused v leaves the cache unchanged.
func (c *byteCache[K, V]) put(k K, v V, size int) {
	if c.budget <= 0 || size > c.budget {
		return
	}
	c.remove(k)
	for old, e := range c.m {
		if c.used+size <= c.budget {
			break
		}
		delete(c.m, old)
		c.used -= e.size
	}
	if c.m == nil {
		c.m = make(map[K]sized[V])
	}
	c.m[k] = sized[V]{v, size}
	c.used += size
}

func (c *byteCache[K, V]) remove(k K) {
	if e, ok := c.m[k]; ok {
		delete(c.m, k)
		c.used -= e.size
	}
}
