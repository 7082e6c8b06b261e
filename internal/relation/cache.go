package relation

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// ColumnSource supplies deterministic column values block-wise for lazy
// (out-of-core) columns. ReadAt fills dst with the values at positions
// [off, off+len(dst)); implementations must be safe for concurrent readers.
type ColumnSource interface {
	// Len returns the number of values in the column.
	Len() int
	// ReadAt fills dst with values [off, off+len(dst)).
	ReadAt(dst []float64, off int) error
}

// Package-level block-cache counters, exported through CacheStats so the
// engine's /metrics and /stats surfaces can report out-of-core residency.
var (
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64
	cacheResident  atomic.Int64 // bytes currently held by caches
)

// CacheStatsSnapshot reports the cumulative behaviour of all block caches.
type CacheStatsSnapshot struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	ResidentBytes int64
}

// CacheStats returns the cumulative block-cache counters.
func CacheStats() CacheStatsSnapshot {
	return CacheStatsSnapshot{
		Hits:          cacheHits.Load(),
		Misses:        cacheMisses.Load(),
		Evictions:     cacheEvictions.Load(),
		ResidentBytes: cacheResident.Load(),
	}
}

// BlockCache is an explicit LRU cache of fixed-size column blocks shared by
// the non-mmap lazy column sources. Its capacity — blockVals values per
// block × maxBlocks blocks × 8 bytes — is the hard bound on the heap the
// out-of-core read path keeps resident, independent of relation size.
type BlockCache struct {
	mu        sync.Mutex
	blockVals int
	maxBlocks int
	lru       *list.List // front = most recently used; values are *cacheEntry
	entries   map[cacheKey]*list.Element
	nextID    uint64
}

type cacheKey struct {
	src   uint64
	block int
}

type cacheEntry struct {
	key  cacheKey
	vals []float64
}

// NewBlockCache creates a cache holding at most maxBlocks blocks of
// blockVals values each.
func NewBlockCache(blockVals, maxBlocks int) *BlockCache {
	if blockVals < 1 {
		blockVals = 1
	}
	if maxBlocks < 1 {
		maxBlocks = 1
	}
	return &BlockCache{
		blockVals: blockVals,
		maxBlocks: maxBlocks,
		lru:       list.New(),
		entries:   map[cacheKey]*list.Element{},
	}
}

// defaultBlockCache backs lazy columns opened without an explicit cache
// where the file cannot be memory-mapped: 2048 values × 256 blocks × 8 B =
// 4 MiB.
var defaultBlockCache = NewBlockCache(2048, 256)

// Wrap returns a ColumnSource that serves src through the cache.
func (c *BlockCache) Wrap(src ColumnSource) ColumnSource {
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	c.mu.Unlock()
	return &cachedSource{inner: src, cache: c, id: id}
}

// block returns the cached block covering values
// [bi*blockVals, (bi+1)*blockVals) of the wrapped source, loading and
// possibly evicting under the cache lock. The returned slice is shared and
// must not be modified.
func (c *BlockCache) block(s *cachedSource, bi int) ([]float64, error) {
	key := cacheKey{src: s.id, block: bi}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		vals := el.Value.(*cacheEntry).vals
		c.mu.Unlock()
		cacheHits.Add(1)
		return vals, nil
	}
	c.mu.Unlock()
	cacheMisses.Add(1)

	lo := bi * c.blockVals
	hi := lo + c.blockVals
	if n := s.inner.Len(); hi > n {
		hi = n
	}
	vals := make([]float64, hi-lo)
	if err := s.inner.ReadAt(vals, lo); err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Raced with another loader; keep the incumbent.
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).vals, nil
	}
	for c.lru.Len() >= c.maxBlocks {
		back := c.lru.Back()
		old := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		cacheEvictions.Add(1)
		cacheResident.Add(-int64(8 * len(old.vals)))
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, vals: vals})
	cacheResident.Add(int64(8 * len(vals)))
	return vals, nil
}

// cachedSource serves ReadAt through the cache's fixed-size blocks.
type cachedSource struct {
	inner ColumnSource
	cache *BlockCache
	id    uint64
}

func (s *cachedSource) Len() int { return s.inner.Len() }

func (s *cachedSource) ReadAt(dst []float64, off int) error {
	if off < 0 || off+len(dst) > s.inner.Len() {
		return fmt.Errorf("relation: cached read [%d,%d) out of range [0,%d)", off, off+len(dst), s.inner.Len())
	}
	bv := s.cache.blockVals
	for len(dst) > 0 {
		bi := off / bv
		vals, err := s.cache.block(s, bi)
		if err != nil {
			return err
		}
		start := off - bi*bv
		n := copy(dst, vals[start:])
		dst = dst[n:]
		off += n
	}
	return nil
}

// sliceSource adapts a resident []float64 to ColumnSource (tests, spill
// round-trips).
type sliceSource []float64

func (s sliceSource) Len() int { return len(s) }

func (s sliceSource) ReadAt(dst []float64, off int) error {
	if off < 0 || off+len(dst) > len(s) {
		return fmt.Errorf("relation: slice read [%d,%d) out of range [0,%d)", off, off+len(dst), len(s))
	}
	copy(dst, s[off:])
	return nil
}

// SliceSource wraps a resident column as a ColumnSource.
func SliceSource(vals []float64) ColumnSource { return sliceSource(vals) }
