package relation

import (
	"sync"

	"spq/internal/rng"
)

// RowCacheSlots is the number of rows the process-wide row cache holds:
// 4 096 slots × rowChunk float64s = 8 MiB. Callers that may realize many
// rows at once size their use of the cache against it.
const RowCacheSlots = 4096

// rowKey names one realized row: a stochastic attribute (by id, never by VG
// pointer, so an evicted row pins nothing), the tuple index its innermost
// VG is called with, the source, and the scenario run first..first+n−1.
//
// A row is a pure function of its key. VGs are coordinate-pure and never
// change once added, and every derived relation that keeps an attribute's
// id keeps its innermost VG; a delta that replaces the VG draws a new id.
// So a cached row is never stale and the cache needs no invalidation.
type rowKey struct {
	attr  uint64
	tuple int
	base  uint64
	first int
	n     int
}

// rowCache is a fixed arena of realized rows, recycled with CLOCK. A hit
// sets the slot's reference bit; the hand clears set bits as it passes and
// evicts the first slot whose bit is clear. Rows are copied in and out
// under the lock and realized outside it. Nothing allocates after
// newRowCache.
type rowCache struct {
	mu    sync.Mutex
	keys  []rowKey
	ref   []bool
	next  []int32   // the next slot in each slot's bucket chain; −1 ends it
	heads []int32   // the first slot of each bucket; −1 for none
	vals  []float64 // slot s holds vals[s·rowChunk : s·rowChunk+keys[s].n]
	used  int       // slots filled so far; the arena fills before it evicts
	hand  int
}

func newRowCache(slots int) *rowCache {
	buckets := 1
	for buckets < slots {
		buckets <<= 1
	}
	c := &rowCache{
		keys:  make([]rowKey, slots),
		ref:   make([]bool, slots),
		next:  make([]int32, slots),
		heads: make([]int32, buckets),
		vals:  make([]float64, slots*rowChunk),
	}
	for b := range c.heads {
		c.heads[b] = -1
	}
	return c
}

// sharedRows is the process-wide row cache, allocated on first use.
var sharedRows = sync.OnceValue(func() *rowCache { return newRowCache(RowCacheSlots) })

// CachedValues is Values for a run of consecutive scenarios (scens[k] =
// scens[0]+k, at most 256 of them), served through the process-wide row
// cache: each row of a stochastic attribute is realized once per process
// while it stays cached, and copied out of the cache after that. hit
// reports a row served from the cache. A deterministic column, and a
// scenario list that is not such a run, is read as Values reads it and
// reports no hit.
func (a Attr) CachedValues(src rng.Source, tuple int, scens []int, out []float64) (hit bool, err error) {
	return sharedRows().values(a, src, tuple, scens, out)
}

// Stochastic reports whether the attribute is stochastic, so that
// CachedValues goes through the row cache.
func (a Attr) Stochastic() bool { return a.vg != nil }

func (c *rowCache) values(a Attr, src rng.Source, tuple int, scens []int, out []float64) (bool, error) {
	if a.vg == nil || !isRun(scens) {
		return false, a.Values(src, tuple, scens, out)
	}
	out = out[:len(scens)]
	vg, tuple := innermost(a.vg, tuple)
	key := rowKey{attr: a.id, tuple: tuple, base: src.Base(), first: scens[0], n: len(scens)}
	if c.get(key, out) {
		return true, nil
	}
	valuesOf(vg, src, tuple, scens, out)
	c.put(key, out)
	return false, nil
}

// innermost follows tuple through vg's remappings to the VG that realizes
// it and the index it has there, the tuple of its row-cache key.
func innermost(vg VGFunc, tuple int) (VGFunc, int) {
	for {
		rv, ok := vg.(*remappedVG)
		if !ok {
			return vg, tuple
		}
		vg, tuple = rv.inner, rv.orig[tuple]
	}
}

// isRun reports whether scens is 1 to rowChunk consecutive scenarios.
func isRun(scens []int) bool {
	if len(scens) == 0 || len(scens) > rowChunk {
		return false
	}
	for k, j := range scens {
		if j != scens[0]+k {
			return false
		}
	}
	return true
}

func (c *rowCache) bucket(k rowKey) int {
	h := rng.Mix(k.attr, uint64(k.tuple), k.base, uint64(k.first), uint64(k.n))
	return int(h & uint64(len(c.heads)-1))
}

func (c *rowCache) find(k rowKey) int32 {
	s := c.heads[c.bucket(k)]
	for s >= 0 && c.keys[s] != k {
		s = c.next[s]
	}
	return s
}

// get copies the row under k into out and reports whether it was cached.
func (c *rowCache) get(k rowKey, out []float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.find(k)
	if s < 0 {
		return false
	}
	c.ref[s] = true
	lo := int(s) * rowChunk
	copy(out, c.vals[lo:lo+k.n])
	return true
}

// put stores row under k, unless a concurrent reader stored it first.
func (c *rowCache) put(k rowKey, row []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.find(k) >= 0 {
		return
	}
	var s int
	if c.used < len(c.keys) {
		s = c.used
		c.used++
	} else {
		for c.ref[c.hand] {
			c.ref[c.hand] = false
			c.hand = (c.hand + 1) % len(c.keys)
		}
		s = c.hand
		c.hand = (c.hand + 1) % len(c.keys)
		p := &c.heads[c.bucket(c.keys[s])]
		for *p != int32(s) {
			p = &c.next[*p]
		}
		*p = c.next[s]
	}
	c.keys[s], c.ref[s] = k, false
	copy(c.vals[s*rowChunk:], row)
	b := c.bucket(k)
	c.next[s], c.heads[b] = c.heads[b], int32(s)
}
