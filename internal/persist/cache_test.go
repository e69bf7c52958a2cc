package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// cacheSegment writes a segment of n events (several chunks when n >
// IndexEvery) and reopens it, returning the read-side info.
func cacheSegment(t *testing.T, n int) *SegmentInfo {
	t.Helper()
	dir := t.TempDir()
	events := make([]Event, n)
	for i := range events {
		events[i] = wEvent(uint64(i), time.Duration(i)*time.Minute, float64(i%30), fmt.Sprintf("s-%d", i%4))
	}
	path := filepath.Join(dir, SegmentFileName(1))
	if _, err := WriteSegment(path, events); err != nil {
		t.Fatal(err)
	}
	info, _, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestReadRangeCachedMatchesUncached reads every alignment of a multi-chunk
// segment through a cache and bare, and the results must be identical —
// on a cold cache, a warm cache, and a partially warm one.
func TestReadRangeCachedMatchesUncached(t *testing.T) {
	info := cacheSegment(t, 3*IndexEvery+17)
	cache := NewChunkCache(1 << 20)
	ranges := [][2]int{
		{0, info.Count},
		{0, 1},
		{IndexEvery - 1, IndexEvery + 1}, // straddles a chunk boundary
		{IndexEvery, 2 * IndexEvery},     // exactly one interior chunk
		{3 * IndexEvery, info.Count},     // the short tail chunk
		{5, 3 * IndexEvery},
	}
	for pass := 0; pass < 2; pass++ { // pass 0 fills the cache, pass 1 hits it
		for _, r := range ranges {
			want, err := info.ReadRange(r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			got, rs, err := info.ReadRangeProjected(cache, r[0], r[1], FullProjection)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("pass %d range %v: %d events, want %d", pass, r, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq {
					t.Fatalf("pass %d range %v: [%d].Seq = %d, want %d", pass, r, i, got[i].Seq, want[i].Seq)
				}
				sameTuple(t, got[i].Tuple, want[i].Tuple)
			}
			if pass == 1 && rs.CacheMisses != 0 {
				t.Fatalf("pass 1 range %v: %d misses on a warm cache", r, rs.CacheMisses)
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 || st.Entries == 0 || st.Bytes <= 0 {
		t.Fatalf("cache never populated: %+v", st)
	}
}

// TestChunkCacheServesWithoutFile: once chunks are cached, reads covered by
// them must not touch the file at all.
func TestChunkCacheServesWithoutFile(t *testing.T) {
	info := cacheSegment(t, 2*IndexEvery)
	cache := NewChunkCache(1 << 20)
	want, _, err := info.ReadRangeProjected(cache, 0, info.Count, FullProjection)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(info.Path); err != nil {
		t.Fatal(err)
	}
	got, rs, err := info.ReadRangeProjected(cache, 0, info.Count, FullProjection)
	if err != nil {
		t.Fatalf("warm read after file deletion: %v", err)
	}
	if rs.CacheMisses != 0 || len(got) != len(want) {
		t.Fatalf("misses=%d len=%d, want 0/%d", rs.CacheMisses, len(got), len(want))
	}
}

// TestChunkCacheBudgetEvicts: the cache must hold its byte budget by
// evicting the least recently used chunks, and a nil (disabled) cache must
// be safe everywhere.
func TestChunkCacheBudgetEvicts(t *testing.T) {
	info := cacheSegment(t, 8*IndexEvery)
	_, _, chunkOff0, chunkEnd0 := info.chunkBounds(0)
	chunkBytes := chunkEnd0 - chunkOff0
	// Budget for roughly two chunks.
	cache := NewChunkCache(2*chunkBytes + chunkBytes/2)
	if _, _, err := info.ReadRangeProjected(cache, 0, info.Count, FullProjection); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Entries == 0 || st.Entries > 3 {
		t.Fatalf("budget of ~2 chunks holds %d entries (%d bytes)", st.Entries, st.Bytes)
	}
	if st.Bytes > 2*chunkBytes+chunkBytes/2 {
		t.Fatalf("cache bytes %d exceed budget", st.Bytes)
	}
	// The surviving entries are the most recently used: the tail of the
	// read. A re-read of the tail chunk must hit.
	_, rs, err := info.ReadRangeProjected(cache, 7*IndexEvery, 8*IndexEvery, FullProjection)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheHits != 1 {
		t.Fatalf("tail chunk re-read: hits = %d, want 1", rs.CacheHits)
	}

	cache.Invalidate(info.Path)
	if st := cache.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("invalidate left %d entries / %d bytes", st.Entries, st.Bytes)
	}

	// Nil cache: disabled everywhere, including stats and invalidation.
	var nilCache *ChunkCache
	if st := nilCache.Stats(); st != (ChunkCacheStats{}) {
		t.Fatal("nil cache stats not zero")
	}
	nilCache.Invalidate("x")
	if NewChunkCache(0) != nil || NewChunkCache(-1) != nil {
		t.Fatal("non-positive budget must disable the cache")
	}
}
