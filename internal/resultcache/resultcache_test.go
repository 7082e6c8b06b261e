package resultcache_test

import (
	"testing"

	"spq/internal/resultcache"
)

func TestMemoryLRU(t *testing.T) {
	m := resultcache.NewMemory(2)
	e1 := &resultcache.Entry{Table: "a", Version: 1}
	e2 := &resultcache.Entry{Table: "b", Version: 1}
	e3 := &resultcache.Entry{Table: "c", Version: 1}
	m.Put("k1", e1)
	m.Put("k2", e2)
	if got, ok := m.Get("k1"); !ok || got != e1 {
		t.Fatal("k1 missing after put")
	}
	// k1 is now most-recent; inserting k3 must evict k2.
	m.Put("k3", e3)
	if _, ok := m.Get("k2"); ok {
		t.Fatal("k2 survived eviction at capacity 2")
	}
	if _, ok := m.Get("k1"); !ok {
		t.Fatal("recently used k1 evicted")
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}

	// Conditional drop: a stale pointer must not evict a fresh entry.
	fresh := &resultcache.Entry{Table: "a", Version: 2}
	m.Put("k1", fresh)
	m.Drop("k1", e1) // e1 is no longer the stored value
	if got, ok := m.Get("k1"); !ok || got != fresh {
		t.Fatal("conditional drop evicted a fresh entry")
	}
	m.Drop("k1", fresh)
	if _, ok := m.Get("k1"); ok {
		t.Fatal("matched drop left the entry behind")
	}
}
