package persist

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// writeV3Corpus writes the fixture corpus — three chunks mixing both test
// schemas, with NaN payloads and empty strings — as a segment file and
// returns the source events.
func writeV3Corpus(t *testing.T, path string) ([]Event, *SegmentInfo) {
	t.Helper()
	events := fixtureCorpus(1, 0)
	info, err := WriteSegment(path, events)
	if err != nil {
		t.Fatal(err)
	}
	return events, info
}

// TestProjectedDecodeV3: a column-masked read returns the projected columns
// exactly, zeroes for the rest, and decodes measurably fewer bytes than the
// full read while counting the skipped sections.
func TestProjectedDecodeV3(t *testing.T) {
	dir := t.TempDir()
	events, info := writeV3Corpus(t, filepath.Join(dir, SegmentFileName(1)))

	full, frs, err := info.ReadRangeProjected(nil, 0, info.Count, FullProjection)
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, full, events)
	if frs.ColumnsSkipped != 0 {
		t.Fatalf("full read skipped %d columns", frs.ColumnsSkipped)
	}

	// Time+theme projection: the select pre-filter shape.
	proj := Projection{Mask: ColTime | ColTheme}
	got, rs, err := info.ReadRangeProjected(nil, 0, info.Count, proj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("projected read %d events, want %d", len(got), len(events))
	}
	for i, pe := range got {
		want := events[i].Tuple
		if !pe.Tuple.Time.Equal(want.Time) || pe.Tuple.Theme != want.Theme {
			t.Fatalf("event %d projected time/theme = %v/%q, want %v/%q",
				i, pe.Tuple.Time, pe.Tuple.Theme, want.Time, want.Theme)
		}
		if pe.Tuple.Source != "" || pe.Tuple.Lat != 0 || pe.Seq != 0 {
			t.Fatalf("event %d leaked unprojected columns: %+v", i, pe)
		}
		if len(pe.Tuple.Values) != len(want.Values) {
			t.Fatalf("event %d values len = %d, want %d", i, len(pe.Tuple.Values), len(want.Values))
		}
		for _, v := range pe.Tuple.Values {
			if !v.IsNull() {
				t.Fatalf("event %d leaked payload value %v", i, v)
			}
		}
	}
	if rs.ColumnsSkipped == 0 {
		t.Fatal("projected read skipped no columns")
	}
	if rs.BytesDecoded == 0 || rs.BytesDecoded*2 > frs.BytesDecoded {
		t.Fatalf("projected read decoded %d bytes of %d full; want less than half",
			rs.BytesDecoded, frs.BytesDecoded)
	}

	// Single-field projection: only temperature decodes, other fields null.
	got, _, err = info.ReadRangeProjected(nil, 0, info.Count, Projection{Mask: ColTime, Field: "temperature"})
	if err != nil {
		t.Fatal(err)
	}
	for i, pe := range got {
		want := events[i].Tuple
		if want.Schema == weather {
			idx := weather.IndexOf("temperature")
			if !pe.Tuple.Values[idx].Equal(want.Values[idx]) {
				t.Fatalf("event %d temperature = %v, want %v", i, pe.Tuple.Values[idx], want.Values[idx])
			}
		}
	}
}

// TestProjectedCacheWidening: a cached narrow projection gives way to a
// following full read (a miss; cacheform_test.go pins what the entry becomes),
// and the final full read is byte-identical to an uncached one.
func TestProjectedCacheWidening(t *testing.T) {
	dir := t.TempDir()
	events, info := writeV3Corpus(t, filepath.Join(dir, SegmentFileName(1)))
	cache := NewChunkCache(1 << 20)

	if _, rs, err := info.ReadRangeProjected(cache, 0, info.Count, Projection{Mask: ColTime}); err != nil {
		t.Fatal(err)
	} else if rs.CacheMisses == 0 {
		t.Fatal("first read must miss")
	}
	// Same projection again: pure cache hits, no bytes decoded.
	if _, rs, err := info.ReadRangeProjected(cache, 0, info.Count, Projection{Mask: ColTime}); err != nil {
		t.Fatal(err)
	} else if rs.CacheHits != info.NumChunks() || rs.BytesDecoded != 0 {
		t.Fatalf("repeat narrow read: %+v, want all hits", rs)
	}
	// Full read: counted as misses (the rows must come off disk).
	full, rs, err := info.ReadRangeProjected(cache, 0, info.Count, FullProjection)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheMisses != info.NumChunks() {
		t.Fatalf("widening read: %+v, want all misses", rs)
	}
	sameEvents(t, full, events)
	// And now the entries serve the full read from RAM.
	if _, rs, err := info.ReadRangeProjected(cache, 0, info.Count, FullProjection); err != nil {
		t.Fatal(err)
	} else if rs.CacheHits != info.NumChunks() || rs.BytesDecoded != 0 {
		t.Fatalf("post-widening full read: %+v, want all hits", rs)
	}
}

// TestV3CorruptColumns: flipped bytes inside a chunk body (with the CRC
// patched so the corruption reaches the decoder) must error, never panic.
func TestV3CorruptColumns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentFileName(1))
	_, info := writeV3Corpus(t, path)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, offStart, offEnd := info.chunkBounds(0)
	for bit := 0; bit < 8; bit++ {
		for _, pos := range []int64{offStart, offStart + 3, (offStart + offEnd) / 2, offEnd - 1} {
			mut := append([]byte(nil), raw...)
			mut[info.eventOff+pos] ^= 1 << bit
			// Patch the chunk CRC in the JSON header? The header CRC would
			// then mismatch too — instead corrupt and re-point the sparse
			// entry in RAM on a fresh SegmentInfo.
			mutPath := filepath.Join(dir, "mut.seg")
			if err := os.WriteFile(mutPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			mi, _, err := OpenSegment(mutPath)
			if err != nil {
				continue // header rejected the file; fine
			}
			mi.Sparse[0].CRC = checksum(mut[mi.eventOff+offStart : mi.eventOff+offEnd])
			evs, _, err := mi.ReadRangeProjected(nil, 0, mi.Count, FullProjection)
			// Either a clean decode error or a harmless value change —
			// never a panic (a panic fails the test on its own).
			_ = evs
			_ = err
		}
	}
}

// TestV3TruncatedSections: every prefix of a chunk body must produce a
// decode error, never a panic or a silent short result.
func TestV3TruncatedSections(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentFileName(1))
	events, info := writeV3Corpus(t, path)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, posEnd, offStart, offEnd := func() (int, int, int64, int64) { return info.chunkBounds(0) }()
	chunk := raw[info.eventOff+offStart : info.eventOff+offEnd]
	n := posEnd
	for cut := 0; cut < len(chunk); cut += 13 {
		cc, _, err := info.decodeChunkV3(chunk[:cut], n, FullProjection)
		if err == nil {
			t.Fatalf("truncation at %d of %d decoded cleanly: %+v", cut, len(chunk), cc)
		}
	}
	// The intact chunk decodes.
	cc, _, err := info.decodeChunkV3(chunk, n, FullProjection)
	if err != nil {
		t.Fatalf("intact chunk: %v", err)
	}
	if got := cc.appendRows(nil, 0, n, nil); len(got) != n || !got[0].Tuple.Time.Equal(events[0].Tuple.Time) {
		t.Fatalf("intact chunk materialized %d events", len(got))
	}
}

// TestOpenSegmentBadMagic: the unknown-magic error names the file and what
// this build supports.
func TestOpenSegmentBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentFileName(1))
	buf := append([]byte("SLSEG099"), make([]byte, 16)...)
	binary.LittleEndian.PutUint32(buf[8:], 0)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenSegment(path)
	if err == nil {
		t.Fatal("unknown magic accepted")
	}
	for _, want := range []string{path, "SLSEG099", "SLSEG003"} {
		if !contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
