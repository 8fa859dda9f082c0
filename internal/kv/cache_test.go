package kv

import (
	"math/rand"
	"testing"
)

// TestByteCacheAccounting drives random put/replace/remove sequences
// through byteCache at several budgets: used always equals the sum of
// the live entries' sizes and never exceeds the budget, a value larger
// than the budget (or any value under budget 0) is refused without
// touching the cache, and replacing a key re-accounts it.
func TestByteCacheAccounting(t *testing.T) {
	for _, budget := range []int{0, 1, 64, 1000} {
		rng := rand.New(rand.NewSource(int64(budget)))
		c := byteCache[int, int]{budget: budget}
		for step := 0; step < 2000; step++ {
			k, size := rng.Intn(20), rng.Intn(budget+20)
			if rng.Intn(4) == 0 {
				c.remove(k)
				if _, ok := c.get(k); ok {
					t.Fatalf("budget %d step %d: removed key %d still cached", budget, step, k)
				}
			} else {
				used, n := c.used, len(c.m)
				c.put(k, step, size)
				v, ok := c.get(k)
				switch refused := budget <= 0 || size > budget; {
				case refused && (c.used != used || len(c.m) != n):
					t.Fatalf("budget %d step %d: refused put of size %d changed the cache", budget, step, size)
				case !refused && (!ok || v != step || c.m[k].size != size):
					t.Fatalf("budget %d step %d: put of size %d not cached as the new value", budget, step, size)
				}
			}
			sum := 0
			for _, e := range c.m {
				sum += e.size
			}
			if c.used != sum || c.used > max(budget, 0) {
				t.Fatalf("budget %d step %d: used %d, live entries sum to %d", budget, step, c.used, sum)
			}
		}
	}
}
