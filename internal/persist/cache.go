package persist

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// ChunkCache is a byte-budgeted LRU of decoded segment-file chunks, shared
// across every cold segment of one warehouse. Segment files are immutable
// and their paths are never reused within a process (generation numbers
// only grow), so an entry can never go stale — at worst it outlives its
// file and ages out. Repeated window queries over the same cold history hit
// RAM instead of re-reading and re-decoding the file.
//
// The budget counts each chunk's encoded on-disk size, which is known
// without decoding anything. What an entry holds is its decoded form, and
// there is exactly one per chunk (colChunk): a chunk some query read in full
// is cached as rows and nothing else, a chunk only narrow projections have
// touched as the columns they decoded. Rows cost 128 B an event plus 32 B a
// payload value — measured on the default sensor fleet, 215 B against 44.5 B
// encoded, 4.8x, so a full 64 MiB budget holds ~310 MiB of rows — and
// Stats().HeldBytes says what the entries hold right now.
// Entries are small (IndexEvery events each), so a budget admits many chunks
// and eviction granularity stays fine.
type ChunkCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64 // encoded bytes of the entries: what budget bounds
	held    int64 // decoded bytes of the entries: what they cost in memory
	entries map[chunkKey]*list.Element
	lru     *list.List // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
}

// chunkKey identifies one decoded chunk: the segment file and the chunk's
// index in its sparse index.
type chunkKey struct {
	path  string
	chunk int
}

// chunkEntry holds one decoded chunk, immutable once cached, with its
// encoded size and the size of the decoded form.
type chunkEntry struct {
	key   chunkKey
	val   *colChunk
	bytes int64
	held  int64
}

// NewChunkCache builds a cache bounded to roughly budget encoded bytes.
// A budget <= 0 returns nil, which every user treats as "no cache".
func NewChunkCache(budget int64) *ChunkCache {
	if budget <= 0 {
		return nil
	}
	return &ChunkCache{
		budget:  budget,
		entries: map[chunkKey]*list.Element{},
		lru:     list.New(),
	}
}

// get returns the decoded chunk and marks it recently used. The returned
// value is shared: callers must treat it (and the tuples it references) as
// immutable, which is already the warehouse-wide contract for stored events.
func (c *ChunkCache) get(k chunkKey) (*colChunk, bool) {
	c.mu.Lock()
	el, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	v := el.Value.(*chunkEntry).val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// update stores a decoded chunk, replacing what the key held — a narrow
// read widens a chunk's cached column set by merging fresh columns into the
// cached ones and storing the union back, a full read replaces the columns
// with rows — and evicts least-recently-used entries until the budget holds.
// Two readers racing here each store a chunk that covers their own
// projection, so last-write-wins is safe. A chunk larger than the whole
// budget is not cached.
func (c *ChunkCache) update(k chunkKey, val *colChunk, size int64) {
	if size > c.budget {
		return
	}
	held := val.heldBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if ok {
		ent := el.Value.(*chunkEntry)
		c.bytes -= ent.bytes
		c.held -= ent.held
		ent.val, ent.bytes, ent.held = val, size, held
		c.lru.MoveToFront(el)
	} else {
		el = c.lru.PushFront(&chunkEntry{key: k, val: val, bytes: size, held: held})
		c.entries[k] = el
	}
	c.bytes += size
	c.held += held
	c.evictLocked(el)
}

// evictLocked drops LRU-tail entries until the budget holds, sparing keep.
func (c *ChunkCache) evictLocked(keep *list.Element) {
	for c.bytes > c.budget {
		tail := c.lru.Back()
		if tail == nil || tail == keep {
			break
		}
		ent := tail.Value.(*chunkEntry)
		c.lru.Remove(tail)
		delete(c.entries, ent.key)
		c.bytes -= ent.bytes
		c.held -= ent.held
	}
}

// Invalidate drops every cached chunk of one segment file. Retention calls
// it when it deletes a cold file whole, so the dead file's chunks free
// their budget immediately instead of aging out.
func (c *ChunkCache) Invalidate(path string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.entries {
		if k.path != path {
			continue
		}
		ent := el.Value.(*chunkEntry)
		c.bytes -= ent.bytes
		c.held -= ent.held
		c.lru.Remove(el)
		delete(c.entries, k)
	}
}

// ChunkCacheStats is a point-in-time cache summary.
type ChunkCacheStats struct {
	Hits    uint64
	Misses  uint64
	Bytes   int64 // encoded bytes cached, bounded by the budget
	Entries int
	// HeldBytes is the decoded size of the cached chunks: what the cache
	// costs in memory, before the collector's headroom.
	HeldBytes int64
}

// Stats reports cumulative hit/miss counters and the current footprint.
// Safe on a nil cache (all zeros).
func (c *ChunkCache) Stats() ChunkCacheStats {
	if c == nil {
		return ChunkCacheStats{}
	}
	c.mu.Lock()
	st := ChunkCacheStats{Bytes: c.bytes, Entries: c.lru.Len(), HeldBytes: c.held}
	c.mu.Unlock()
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	return st
}
