// Package resultcache holds the engine's LRU store, used for both of its
// caches: fully evaluated, deterministic query responses, which let
// identical requests skip solving entirely, and prepared plans, which let
// them skip translation.
//
// Every entry names the relation and version it was computed against, and
// the engine revalidates (and drops dead entries) on every hit. Local holds
// the engine's in-process value — pointers into live plans and relations,
// cheap to serve, never serialized.
package resultcache

import (
	"container/list"
	"sync"
)

// Entry is one cached result with the validation metadata the engine needs
// to decide whether it is still current.
type Entry struct {
	// Table and Version name the registered relation (and its version
	// counter) the result was computed against. A hit is only served when
	// the catalog still resolves Table to a relation at Version.
	Table   string
	Version uint64
	// Local is the engine's in-process cached value (opaque to this
	// package).
	Local any
}

// Memory is the in-process LRU store, safe for concurrent use; keys are the
// engine's canonical plan or result keys. The zero value is not usable; call
// NewMemory. A nil *Memory is a disabled cache: Get misses, Put and Drop do
// nothing, and Len is 0.
type Memory struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *memEntry
	m   map[string]*list.Element
}

type memEntry struct {
	key string
	val *Entry
}

// NewMemory returns an LRU store holding at most capacity entries
// (capacity must be positive).
func NewMemory(capacity int) *Memory {
	return &Memory{
		cap: capacity,
		ll:  list.New(),
		m:   map[string]*list.Element{},
	}
}

// Get returns the entry under key, marking it recently used.
func (s *Memory) Get(key string) (*Entry, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// Put stores e under key, evicting least-recently-used entries beyond the
// store's capacity.
func (s *Memory) Put(key string, e *Entry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*memEntry).val = e
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&memEntry{key: key, val: e})
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*memEntry).key)
	}
}

// Drop removes the entry under key only while it is still exactly stale
// (pointer identity): a validator that saw a dead entry can race with a
// fresh Put from a concurrent solve, and must not evict the fresh value.
func (s *Memory) Drop(key string, stale *Entry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok && el.Value.(*memEntry).val == stale {
		s.ll.Remove(el)
		delete(s.m, key)
	}
}

// Len reports the number of entries currently stored.
func (s *Memory) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
