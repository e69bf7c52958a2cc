package persist

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The chunk cache holds one decoded form per chunk: rows once some read
// wanted the chunk in full, columns while only narrow projections have. The
// tests here pin that shape, and that the three ways a chunk becomes rows
// agree event for event.

// requireDecodersAgree reads the whole segment three ways — a full read
// through a cache, a full read without one, and decodeChunkV3 under the full
// projection followed by appendRows — and requires the same events from all
// three: time, seq, tuple seq, geo, theme, source, schema and every value.
func requireDecodersAgree(t *testing.T, info *SegmentInfo) {
	t.Helper()
	bare, _, err := info.ReadRangeProjected(nil, 0, info.Count, FullProjection)
	if err != nil {
		t.Fatalf("uncached full read: %v", err)
	}
	cached, _, err := info.ReadRangeProjected(NewChunkCache(1<<30), 0, info.Count, FullProjection)
	if err != nil {
		t.Fatalf("cached full read: %v", err)
	}
	raw, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	var viaColumns []Event
	for k := 0; k < info.NumChunks(); k++ {
		posStart, posEnd, off, end := info.chunkBounds(k)
		n := posEnd - posStart
		cc, _, err := info.decodeChunkV3(raw[info.eventOff+off:info.eventOff+end], n, FullProjection)
		if err != nil {
			t.Fatalf("column decode of chunk %d: %v", k, err)
		}
		viaColumns = append(viaColumns, cc.appendRows(nil, 0, n, nil)...)
	}
	for name, got := range map[string][]Event{"cached": cached, "columns+appendRows": viaColumns} {
		sameEvents(t, got, bare)
		for i := range got {
			if got[i].Tuple.Schema != bare[i].Tuple.Schema {
				t.Fatalf("%s: event %d resolved schema %p, uncached read %p", name, i, got[i].Tuple.Schema, bare[i].Tuple.Schema)
			}
		}
	}
}

func TestDecodersAgreeOnFixtureCorpus(t *testing.T) {
	_, info := writeV3Corpus(t, filepath.Join(t.TempDir(), SegmentFileName(1)))
	requireDecodersAgree(t, info)
}

// cachedChunk returns what the cache holds for chunk k of the segment, nil
// if nothing.
func cachedChunk(c *ChunkCache, info *SegmentInfo, k int) *colChunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[chunkKey{info.Path, k}]
	if !ok {
		return nil
	}
	return el.Value.(*chunkEntry).val
}

// requireRowsOnly requires every chunk of the segment cached as rows and
// nothing else.
func requireRowsOnly(t *testing.T, c *ChunkCache, info *SegmentInfo) {
	t.Helper()
	for k := 0; k < info.NumChunks(); k++ {
		cc := cachedChunk(c, info, k)
		if cc == nil || cc.rows == nil {
			t.Fatalf("chunk %d is not cached as rows (cached at all: %v)", k, cc != nil)
		}
		if cc.times != nil || cc.seqs != nil || cc.tseqs != nil || cc.lats != nil || cc.lons != nil ||
			cc.themes != nil || cc.sources != nil || cc.schemas != nil || cc.nvals != nil || cc.vals != nil {
			t.Fatalf("chunk %d holds columns (mask %b) beside its rows", k, cc.mask)
		}
		start, end := info.ChunkRange(k)
		want := int64(end-start) * rowBytes
		for _, ev := range cc.rows {
			want += int64(len(ev.Tuple.Values)) * valueBytes
		}
		if len(cc.rows) != end-start || cc.heldBytes() != want {
			t.Fatalf("chunk %d: %d rows holding %d bytes, want %d rows and %d bytes", k, len(cc.rows), cc.heldBytes(), end-start, want)
		}
	}
}

// requireHit requires rs to be a read served wholly from the cache, and got
// to be windows on the cached rows of the chunks spanning [lo, ...): the
// very tuples the entry holds, not copies.
func requireHit(t *testing.T, c *ChunkCache, info *SegmentInfo, lo int, got []Event, rs ReadStats) {
	t.Helper()
	if rs.CacheMisses != 0 || rs.CacheHits == 0 || rs.BytesDecoded != 0 {
		t.Fatalf("read at %d: %+v, want hits only and no byte decoded", lo, rs)
	}
	for i, ev := range got {
		k, _ := info.chunkSpan(lo+i, lo+i+1)
		start, _ := info.ChunkRange(k)
		if held := cachedChunk(c, info, k).rows[lo+i-start]; ev.Tuple != held.Tuple || ev.Seq != held.Seq {
			t.Fatalf("event %d of the read is not the cached row", lo+i)
		}
	}
}

// TestFullReadCachesRowsOnly: a full read leaves rows and no column slice;
// a second full read, a narrow projected read and a read of part of one
// chunk are then hits that decode nothing and hand out the cached rows.
func TestFullReadCachesRowsOnly(t *testing.T) {
	events, info := writeV3Corpus(t, filepath.Join(t.TempDir(), SegmentFileName(1)))
	cache := NewChunkCache(1 << 20)
	first, rs, err := info.ReadRangeProjected(cache, 0, info.Count, FullProjection)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheMisses != info.NumChunks() || rs.BytesDecoded == 0 {
		t.Fatalf("first read: %+v, want every chunk a miss", rs)
	}
	sameEvents(t, first, events)
	requireRowsOnly(t, cache, info)
	held := cache.Stats().HeldBytes
	if want := int64(info.Count)*rowBytes + countValues(events)*valueBytes; held != want {
		t.Fatalf("HeldBytes = %d, want %d (rows only)", held, want)
	}

	reads := []struct {
		lo, hi int
		proj   Projection
	}{
		{0, info.Count, FullProjection},
		{0, info.Count, Projection{Mask: ColTime | ColSource, Field: "temperature"}},
		{IndexEvery + 10, IndexEvery + 20, FullProjection}, // inside chunk 1
		{IndexEvery + 10, IndexEvery + 20, Projection{Mask: ColTime}},
		{IndexEvery - 3, IndexEvery + 3, FullProjection}, // two boundary chunks
	}
	for _, r := range reads {
		got, rs, err := info.ReadRangeProjected(cache, r.lo, r.hi, r.proj)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, got, events[r.lo:r.hi])
		requireHit(t, cache, info, r.lo, got, rs)
	}
	requireRowsOnly(t, cache, info)
	if st := cache.Stats(); st.HeldBytes != held || st.Entries != info.NumChunks() {
		t.Fatalf("hits changed what the cache holds: %+v, held %d before", st, held)
	}

	cache.Invalidate(info.Path)
	if st := cache.Stats(); st.HeldBytes != 0 || st.Bytes != 0 {
		t.Fatalf("invalidate left %+v", st)
	}
}

func countValues(events []Event) int64 {
	var n int64
	for _, ev := range events {
		n += int64(len(ev.Tuple.Values))
	}
	return n
}

// TestFullReadReplacesColumns: a full read over chunks cached as columns is
// a miss that replaces each entry with rows — it does not merge into it —
// and the narrow projection that put the columns there is a hit on the rows.
// That holds even when the cached columns are a union of narrow projections
// that adds up to every column: the full projection is served by rows alone.
func TestFullReadReplacesColumns(t *testing.T) {
	narrow := Projection{Mask: ColTime | ColTheme, Field: "temperature"}
	for name, warm := range map[string][]Projection{
		"one narrow projection": {narrow},
		"a union that adds up to ColAll": {
			{Mask: ColTime | ColSeq | ColGeo | ColValues},
			{Mask: ColTheme | ColSource},
		},
	} {
		t.Run(name, func(t *testing.T) {
			events, info := writeV3Corpus(t, filepath.Join(t.TempDir(), SegmentFileName(1)))
			cache := NewChunkCache(1 << 20)
			for _, proj := range warm {
				if _, _, err := info.ReadRangeProjected(cache, 0, info.Count, proj); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < info.NumChunks(); k++ {
				if cc := cachedChunk(cache, info, k); cc == nil || cc.rows != nil || cc.times == nil {
					t.Fatalf("chunk %d after narrow reads is not cached as columns (cached at all: %v)", k, cc != nil)
				}
			}
			colHeld := cache.Stats().HeldBytes

			got, rs, err := info.ReadRangeProjected(cache, 0, info.Count, FullProjection)
			if err != nil {
				t.Fatal(err)
			}
			if rs.CacheMisses != info.NumChunks() || rs.CacheHits != 0 {
				t.Fatalf("full read over columns: %+v, want every chunk a miss", rs)
			}
			sameEvents(t, got, events)
			requireRowsOnly(t, cache, info)
			if st := cache.Stats(); st.HeldBytes == colHeld || st.Entries != info.NumChunks() {
				t.Fatalf("entries were not replaced: %+v, columns held %d", st, colHeld)
			}

			got, rs, err = info.ReadRangeProjected(cache, 0, info.Count, narrow)
			if err != nil {
				t.Fatal(err)
			}
			requireHit(t, cache, info, 0, got, rs)
		})
	}
}

// TestNarrowReadsMerge: two narrow reads naming different fields widen one
// columns entry — neither evicts the other's column, no rows appear — and
// either is a hit afterwards.
func TestNarrowReadsMerge(t *testing.T) {
	events, info := writeV3Corpus(t, filepath.Join(t.TempDir(), SegmentFileName(1)))
	cache := NewChunkCache(1 << 20)
	temp := Projection{Mask: ColTime, Field: "temperature"}
	station := Projection{Mask: ColTime | ColSource, Field: "station"}
	var held int64
	for i, proj := range []Projection{temp, station} {
		if _, rs, err := info.ReadRangeProjected(cache, 0, info.Count, proj); err != nil {
			t.Fatal(err)
		} else if rs.CacheMisses != info.NumChunks() {
			t.Fatalf("read %d: %+v, want every chunk a miss", i, rs)
		}
		if st := cache.Stats(); st.HeldBytes <= held {
			t.Fatalf("read %d: cache holds %d bytes, %d before the wider union", i, st.HeldBytes, held)
		} else {
			held = st.HeldBytes
		}
	}
	pt, ps := weather.IndexOf("temperature"), weather.IndexOf("station")
	for k := 0; k < info.NumChunks(); k++ {
		cc := cachedChunk(cache, info, k)
		if cc.rows != nil || cc.mask != ColTime|ColSource || !cc.valsDone[pt] || !cc.valsDone[ps] || cc.sources == nil {
			t.Fatalf("chunk %d: mask %b, positions done %v, rows %v; want the union of both projections in columns", k, cc.mask, cc.valsDone, cc.rows != nil)
		}
	}
	for _, proj := range []Projection{temp, station} {
		got, rs, err := info.ReadRangeProjected(cache, 0, info.Count, proj)
		if err != nil {
			t.Fatal(err)
		}
		if rs.CacheHits != info.NumChunks() || rs.BytesDecoded != 0 {
			t.Fatalf("%+v after the merge: %+v, want all hits", proj, rs)
		}
		for i, ev := range got {
			if want := events[i].Tuple; want.Schema == weather && !ev.Tuple.Values[pt].Equal(want.Values[pt]) {
				t.Fatalf("event %d temperature = %v, want %v", i, ev.Tuple.Values[pt], want.Values[pt])
			}
		}
	}
	if st := cache.Stats(); st.HeldBytes != held {
		t.Fatalf("hits changed HeldBytes: %d, was %d", st.HeldBytes, held)
	}
}

// TestConcurrentReadersOneForm runs full, narrow and partial-range readers
// against one small cache at once (run it under -race): every read returns
// the right events whatever form it found or left behind, and the running
// HeldBytes equals what the surviving entries hold.
func TestConcurrentReadersOneForm(t *testing.T) {
	events, info := writeV3Corpus(t, filepath.Join(t.TempDir(), SegmentFileName(1)))
	_, _, off, end := info.chunkBounds(0)
	cache := NewChunkCache(2 * (end - off)) // two of three chunks: evictions too
	projs := []Projection{
		FullProjection,
		{Mask: ColTime, Field: "temperature"},
		{Mask: ColTime | ColSource, Field: "station"},
	}
	pt := weather.IndexOf("temperature")
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				proj := projs[(g+i)%len(projs)]
				lo := (g*37 + i*101) % info.Count
				hi := min(lo+1+(i*53)%(2*IndexEvery), info.Count)
				got, _, err := info.ReadRangeProjected(cache, lo, hi, proj)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != hi-lo {
					t.Errorf("[%d, %d): %d events", lo, hi, len(got))
					return
				}
				for j, ev := range got {
					want := events[lo+j].Tuple
					if !ev.Tuple.Time.Equal(want.Time) || ev.Tuple.Schema != want.Schema {
						t.Errorf("[%d, %d) event %d: time %v schema %v, want %v %v", lo, hi, j, ev.Tuple.Time, ev.Tuple.Schema, want.Time, want.Schema)
						return
					}
					if proj.full() && (ev.Seq != events[lo+j].Seq || ev.Tuple.Source != want.Source) {
						t.Errorf("[%d, %d) event %d: full read lost seq or source", lo, hi, j)
						return
					}
					if proj.Field == "temperature" && want.Schema == weather && !ev.Tuple.Values[pt].Equal(want.Values[pt]) {
						t.Errorf("[%d, %d) event %d: temperature %v, want %v", lo, hi, j, ev.Tuple.Values[pt], want.Values[pt])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var held int64
	for k := 0; k < info.NumChunks(); k++ {
		if cc := cachedChunk(cache, info, k); cc != nil {
			if (cc.rows != nil) == (cc.schemas != nil) {
				t.Fatalf("chunk %d is cached in both forms or neither (rows %v, columns %v)", k, cc.rows != nil, cc.schemas != nil)
			}
			held += cc.heldBytes()
		}
	}
	if st := cache.Stats(); st.HeldBytes != held || held == 0 {
		t.Fatalf("HeldBytes = %d, entries hold %d", st.HeldBytes, held)
	}
}

// TestReadRangeIntoReusesRows: reads into one RowBuf, over chunks cached as
// columns, as rows and not at all, return the events fresh reads do — values
// outside a read's projection zero, whatever an earlier read left in the
// buffer — and a repeat read over cached columns builds its rows without
// allocating them again.
func TestReadRangeIntoReusesRows(t *testing.T) {
	_, info := writeV3Corpus(t, filepath.Join(t.TempDir(), SegmentFileName(1)))
	cache := NewChunkCache(1 << 20)
	temp := Projection{Mask: ColTime | ColSource, Field: "temperature"}
	if _, _, err := info.ReadRangeProjected(cache, 0, 2*IndexEvery, temp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := info.ReadRangeProjected(cache, IndexEvery, IndexEvery+1, FullProjection); err != nil {
		t.Fatal(err)
	}
	var buf RowBuf
	reads := []struct {
		lo, hi int
		proj   Projection
	}{
		{0, info.Count, temp},
		{5, IndexEvery - 5, Projection{Mask: ColTime, Field: "station"}},
		{2 * IndexEvery, info.Count, temp}, // over the stations the last read left
		{IndexEvery - 3, IndexEvery + 3, temp},
		{0, info.Count, FullProjection},
		{10, 20, Projection{Mask: ColTime}},
	}
	for _, r := range reads {
		got, _, err := info.ReadRangeInto(cache, r.lo, r.hi, r.proj, &buf)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := info.ReadRangeProjected(cache, r.lo, r.hi, r.proj)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, got, want)
	}

	read := func(b *RowBuf) func() {
		return func() {
			if _, _, err := info.ReadRangeInto(cache, 0, IndexEvery, temp, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	read(&buf)()
	if fresh, reused := testing.AllocsPerRun(20, read(nil)), testing.AllocsPerRun(20, read(&buf)); reused >= fresh {
		t.Fatalf("a read into a warm RowBuf made %.0f allocations, a fresh read %.0f", reused, fresh)
	}
}
