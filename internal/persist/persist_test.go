package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamloader/internal/stt"
)

var t0 = time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)

var weather = stt.MustSchema([]stt.Field{
	stt.NewField("temperature", stt.KindFloat, "celsius"),
	stt.NewField("station", stt.KindString, ""),
}, stt.GranMinute, stt.SpatCellDistrict, "weather")

var kitchenSink = stt.MustSchema([]stt.Field{
	stt.NewField("b", stt.KindBool, ""),
	stt.NewField("i", stt.KindInt, ""),
	stt.NewField("f", stt.KindFloat, ""),
	stt.NewField("s", stt.KindString, ""),
	stt.NewField("t", stt.KindTime, ""),
	stt.NewField("n", stt.KindFloat, ""),
}, stt.GranSecond, stt.SpatPoint, "test", "misc")

func wEvent(seq uint64, offset time.Duration, temp float64, station string) Event {
	return Event{Seq: seq, Tuple: &stt.Tuple{
		Schema: weather,
		Values: []stt.Value{stt.Float(temp), stt.String(station)},
		Time:   t0.Add(offset),
		Lat:    34.7, Lon: 135.5,
		Theme: "weather", Source: station, Seq: seq,
	}}
}

func sinkEvent(seq uint64) Event {
	return Event{Seq: seq, Tuple: &stt.Tuple{
		Schema: kitchenSink,
		Values: []stt.Value{
			stt.Bool(true), stt.Int(-42), stt.Float(3.25),
			stt.String("héllo\x00world"), stt.Time(t0.Add(time.Hour)), stt.Null(),
		},
		Time: t0.Add(time.Duration(seq) * time.Second),
		Lat:  -1.5, Lon: 0.25,
		Theme: "test", Source: "sink",
	}}
}

func sameTuple(t *testing.T, got, want *stt.Tuple) {
	t.Helper()
	if !got.Time.Equal(want.Time) {
		t.Fatalf("time = %v, want %v", got.Time, want.Time)
	}
	if got.Lat != want.Lat || got.Lon != want.Lon {
		t.Fatalf("pos = (%v,%v), want (%v,%v)", got.Lat, got.Lon, want.Lat, want.Lon)
	}
	if got.Theme != want.Theme || got.Source != want.Source || got.Seq != want.Seq {
		t.Fatalf("meta = %q/%q/%d, want %q/%q/%d",
			got.Theme, got.Source, got.Seq, want.Theme, want.Source, want.Seq)
	}
	if !got.Schema.Compatible(want.Schema) {
		t.Fatalf("schema = %s, want %s", got.Schema, want.Schema)
	}
	if got.Schema.TGran != want.Schema.TGran || got.Schema.SGran != want.Schema.SGran {
		t.Fatalf("granularities differ: %s vs %s", got.Schema, want.Schema)
	}
	if len(got.Schema.Themes) != len(want.Schema.Themes) {
		t.Fatalf("themes = %v, want %v", got.Schema.Themes, want.Schema.Themes)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for i := range got.Values {
		g, w := got.Values[i], want.Values[i]
		if g.Kind() != w.Kind() {
			t.Fatalf("value %d kind = %s, want %s", i, g.Kind(), w.Kind())
		}
		if g.Kind() == stt.KindFloat {
			// Bit comparison so NaN payloads count as round-tripped.
			if math.Float64bits(g.AsFloat()) != math.Float64bits(w.AsFloat()) {
				t.Fatalf("value %d = %v (bits %x), want %v (bits %x)",
					i, g, math.Float64bits(g.AsFloat()), w, math.Float64bits(w.AsFloat()))
			}
			continue
		}
		if g.Kind() != stt.KindNull && !g.Equal(w) {
			t.Fatalf("value %d = %v, want %v", i, g, w)
		}
	}
}

func replayAll(t *testing.T, dir string) ([]Event, ReplayResult) {
	t.Helper()
	var got []Event
	res, err := ReplayWAL(dir, func(ev Event, _ Pos) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, res
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for i := 0; i < 10; i++ {
		want = append(want, wEvent(uint64(i), time.Duration(i)*time.Minute, float64(20+i), "umeda"))
	}
	want = append(want, sinkEvent(10), sinkEvent(11))
	if err := w.Append(want[:5]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(want[5:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, res := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	if res.MaxSeq != 11 || res.Truncated != 0 {
		t.Fatalf("result = %+v", res)
	}
	for i := range got {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("event %d seq = %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		sameTuple(t, got[i].Tuple, want[i].Tuple)
	}
	// Replayed tuples of one logical schema share one *Schema.
	if got[0].Tuple.Schema != got[9].Tuple.Schema {
		t.Error("recovered schemas not interned")
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := w.Append([]Event{wEvent(uint64(i), time.Duration(i)*time.Minute, 20, "s")}); err != nil {
			t.Fatal(err)
		}
	}
	w.CloseHard()

	files, err := listWALFiles(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("files = %v, %v", files, err)
	}
	// Tear the last record: cut a few bytes off the tail.
	st, _ := os.Stat(files[0])
	if err := os.Truncate(files[0], st.Size()-3); err != nil {
		t.Fatal(err)
	}

	got, res := replayAll(t, dir)
	if len(got) != 7 {
		t.Fatalf("replayed %d events after tear, want 7", len(got))
	}
	if res.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", res.Truncated)
	}
	// The file now ends on a clean frame boundary: replay again, no tear.
	got, res = replayAll(t, dir)
	if len(got) != 7 || res.Truncated != 0 {
		t.Fatalf("second replay: %d events, %d truncations", len(got), res.Truncated)
	}
}

func TestWALCorruptRecordDropsTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 4; i++ {
		if err := w.Append([]Event{wEvent(uint64(i), time.Duration(i)*time.Minute, 20, "s")}); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, w.fileSize)
	}
	w.CloseHard()

	files, _ := listWALFiles(dir)
	// Flip a byte inside the third record's payload.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[sizes[1]+frameHeader+2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, res := replayAll(t, dir)
	if len(got) != 2 {
		t.Fatalf("replayed %d events after corruption, want 2", len(got))
	}
	if res.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", res.Truncated)
	}
}

func TestWALRotationAndSchemaRestate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment size forces a rotation per append.
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNever, SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Append([]Event{wEvent(uint64(i), time.Duration(i)*time.Minute, 20, "s")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := listWALFiles(dir)
	if len(files) < 3 {
		t.Fatalf("expected several rotated files, got %d", len(files))
	}
	// Delete the early files (as a checkpoint would): later files must
	// still decode because each file re-states the schema dictionary.
	for _, f := range files[:len(files)-2] {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := replayAll(t, dir)
	if len(got) == 0 || len(got) >= n {
		t.Fatalf("replayed %d events from surviving files", len(got))
	}
	for _, ev := range got {
		if ev.Tuple.Schema == nil {
			t.Fatal("event decoded without schema")
		}
	}
}

func TestWALDropObsolete(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNever, SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append([]Event{wEvent(uint64(i), time.Duration(i)*time.Minute, 20, "s")}); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Bytes()
	reclaimed := w.DropObsolete(10)
	if reclaimed <= 0 {
		t.Fatal("no bytes reclaimed")
	}
	if w.Bytes() != before-reclaimed {
		t.Fatalf("Bytes() = %d, want %d", w.Bytes(), before-reclaimed)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Events >= 10 must all survive the checkpoint.
	got, _ := replayAll(t, dir)
	seen := map[uint64]bool{}
	for _, ev := range got {
		seen[ev.Seq] = true
	}
	for seq := uint64(10); seq < 20; seq++ {
		if !seen[seq] {
			t.Fatalf("seq %d lost by DropObsolete", seq)
		}
	}
}

func TestWALReopenContinues(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]Event{wEvent(0, 0, 20, "s")}); err != nil {
		t.Fatal(err)
	}
	w.CloseHard()

	var replayed []Event
	res, err := ReplayWAL(dir, func(ev Event, _ Pos) error { replayed = append(replayed, ev); return nil })
	if err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{Sync: SyncNever}, res.Files)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]Event{wEvent(1, time.Minute, 21, "s")}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	if len(got) != 2 {
		t.Fatalf("after reopen replayed %d events, want 2", len(got))
	}
	if got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("seqs = %d, %d", got[0].Seq, got[1].Seq)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var events []Event
	for i := 0; i < 1000; i++ {
		events = append(events, wEvent(uint64(i), time.Duration(i)*time.Second, float64(i%30), fmt.Sprintf("src-%d", i%4)))
	}
	events = append(events, sinkEvent(1000))
	SortEvents(events)
	path := filepath.Join(dir, SegmentFileName(1))
	info, err := WriteSegment(path, events)
	if err != nil {
		t.Fatal(err)
	}
	if info.Count != len(events) {
		t.Fatalf("Count = %d", info.Count)
	}

	opened, seqs, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Count != len(events) || len(seqs) != len(events) {
		t.Fatalf("opened count = %d, seqs = %d", opened.Count, len(seqs))
	}
	if !opened.Head.Time.Equal(events[0].Tuple.Time) || opened.Head.Seq != events[0].Seq {
		t.Fatalf("head = %+v", opened.Head)
	}
	if !opened.Tail.Time.Equal(events[len(events)-1].Tuple.Time) {
		t.Fatalf("tail = %+v", opened.Tail)
	}
	if opened.SourceCounts["src-0"] != 250 {
		t.Fatalf("source counts = %v", opened.SourceCounts)
	}
	if opened.ThemeCounts["weather"] != 1000 || opened.ThemeCounts["test"] != 1 {
		t.Fatalf("theme counts = %v", opened.ThemeCounts)
	}
	for i, ev := range events {
		if seqs[i] != ev.Seq {
			t.Fatalf("seq block [%d] = %d, want %d", i, seqs[i], ev.Seq)
		}
	}

	got, err := opened.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Seq != events[i].Seq {
			t.Fatalf("event %d seq = %d, want %d", i, got[i].Seq, events[i].Seq)
		}
		sameTuple(t, got[i].Tuple, events[i].Tuple)
	}
}

func TestSegmentReadRangeAndWindow(t *testing.T) {
	dir := t.TempDir()
	var events []Event
	for i := 0; i < 1000; i++ {
		events = append(events, wEvent(uint64(i), time.Duration(i)*time.Second, 20, "s"))
	}
	path := filepath.Join(dir, SegmentFileName(1))
	if _, err := WriteSegment(path, events); err != nil {
		t.Fatal(err)
	}
	info, _, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}

	// Mid-file range spanning a chunk boundary.
	got, err := info.ReadRange(200, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 || got[0].Seq != 200 || got[399].Seq != 599 {
		t.Fatalf("range = %d events, first %d, last %d", len(got), got[0].Seq, got[len(got)-1].Seq)
	}

	// Window positions are conservative but chunk-pruned.
	lo, hi := info.WindowPositions(t0.Add(500*time.Second), t0.Add(510*time.Second))
	if lo > 500 || hi < 510 {
		t.Fatalf("window [%d, %d) excludes target events", lo, hi)
	}
	if lo == 0 && hi == 1000 {
		t.Fatal("window did not prune any chunk")
	}
	got, err = info.ReadRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range got {
		if !ev.Tuple.Time.Before(t0.Add(500*time.Second)) && ev.Tuple.Time.Before(t0.Add(510*time.Second)) {
			n++
		}
	}
	if n != 10 {
		t.Fatalf("window read found %d in-window events, want 10", n)
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	var events []Event
	for i := 0; i < 300; i++ {
		events = append(events, wEvent(uint64(i), time.Duration(i)*time.Second, 20, "s"))
	}
	path := filepath.Join(dir, SegmentFileName(1))
	info, err := WriteSegment(path, events)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[info.eventOff+10] ^= 0xff // corrupt the first event chunk
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opened, _, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err) // header is intact
	}
	if _, err := opened.ReadAll(); err == nil {
		t.Fatal("corrupted chunk read without error")
	}
	// The second chunk is clean and still readable.
	if _, err := opened.ReadRange(IndexEvery, 300); err != nil {
		t.Fatalf("clean chunk unreadable: %v", err)
	}
}

// craftedSegment writes the fixture corpus as a segment file, rewrites its
// header JSON through edit and re-stamps the header's length and checksum:
// a file whose header passes its CRC and lies. Only OpenSegment's own
// checks stand between such a header and the read path, which sizes
// allocations by the count and indexes the event block by the sparse index.
func craftedSegment(t *testing.T, edit func(*segHeaderJSON)) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), SegmentFileName(1))
	if _, err := WriteSegment(path, fixtureCorpus(1, 0)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := int(binary.LittleEndian.Uint32(raw[8:]))
	var hdr segHeaderJSON
	if err := json.Unmarshal(raw[16:16+hdrLen], &hdr); err != nil {
		t.Fatal(err)
	}
	edit(&hdr)
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, raw[:8]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdrBytes)))
	out = binary.LittleEndian.AppendUint32(out, checksum(hdrBytes))
	out = append(out, hdrBytes...)
	out = append(out, raw[16+hdrLen:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// requireOpenRejects requires OpenSegment to refuse each crafted header with
// an error naming the file.
func requireOpenRejects(t *testing.T, edits map[string]func(*segHeaderJSON)) {
	t.Helper()
	for name, edit := range edits {
		path := craftedSegment(t, edit)
		info, _, err := OpenSegment(path)
		if err == nil {
			_, err = info.ReadAll() // what an unvalidated header goes on to do
			t.Errorf("%s: OpenSegment accepted the header; ReadAll then said %v", name, err)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name %s", name, err, path)
		}
	}
}

// TestOpenSegmentRejectsCraftedCount: the count sizes the seq-block
// allocation, so it is checked against the file before anything is
// allocated. A negative count used to panic in make.
func TestOpenSegmentRejectsCraftedCount(t *testing.T) {
	requireOpenRejects(t, map[string]func(*segHeaderJSON){
		"negative count":        func(h *segHeaderJSON) { h.Count = -1 },
		"count beyond the file": func(h *segHeaderJSON) { h.Count = 1 << 40 },
		"negative event bytes":  func(h *segHeaderJSON) { h.EventBytes = -h.EventBytes },
	})
}

// TestOpenSegmentRejectsCraftedSparseIndex: the read loop slices the event
// block by the sparse index without re-checking. An offset past the block
// used to panic there.
func TestOpenSegmentRejectsCraftedSparseIndex(t *testing.T) {
	requireOpenRejects(t, map[string]func(*segHeaderJSON){
		"offset past the block": func(h *segHeaderJSON) { h.Sparse[1].Off = h.EventBytes + 100 },
		"offsets out of order":  func(h *segHeaderJSON) { h.Sparse[2].Off = h.Sparse[1].Off },
		"first chunk not at 0":  func(h *segHeaderJSON) { h.Sparse[0].Pos = 5 },
		"positions out of order": func(h *segHeaderJSON) {
			h.Sparse[1].Pos, h.Sparse[2].Pos = h.Sparse[2].Pos, h.Sparse[1].Pos
		},
		"position past the count": func(h *segHeaderJSON) { h.Sparse[2].Pos = h.Count },
		"no sparse index":         func(h *segHeaderJSON) { h.Sparse = nil },
	})
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	m := Manifest{Version: 1, Shards: 8}
	m.AddCut(Cut{
		Watermark: Key{Time: t0.Add(time.Hour), Seq: 42},
		Marks:     []ShardMark{{WALFile: 1, WALOff: 100, SegGen: 3}},
	})
	if err := SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Shards != 8 || len(got.Cuts) != 1 {
		t.Fatalf("manifest = %+v", got)
	}
	c := got.Cuts[0]
	if !c.Watermark.Time.Equal(t0.Add(time.Hour)) || c.Watermark.Seq != 42 ||
		c.Mark(0) != (ShardMark{WALFile: 1, WALOff: 100, SegGen: 3}) {
		t.Fatalf("cut = %+v", c)
	}
	// Cut-free manifests stay cut-free.
	if err := SaveManifest(dir, Manifest{Version: 1, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	got, _, _ = LoadManifest(dir)
	if len(got.Cuts) != 0 {
		t.Fatalf("cuts = %+v, want none", got.Cuts)
	}
}

// TestManifestLegacySingleCut: a manifest written before the cut frontier
// (top-level watermark + marks) loads as one cut.
func TestManifestLegacySingleCut(t *testing.T) {
	dir := t.TempDir()
	legacy := `{"version":1,"shards":4,"marks":[{"wal_file":2,"wal_off":7,"seg_gen":5}],` +
		`"watermark":{"unix_sec":1458000000,"nanos":0,"seq":9,"set":true}}`
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	m, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if len(m.Cuts) != 1 {
		t.Fatalf("cuts = %+v, want the legacy pair", m.Cuts)
	}
	c := m.Cuts[0]
	if c.Watermark.Seq != 9 || c.Mark(0).SegGen != 5 || c.Mark(0).WALFile != 2 {
		t.Fatalf("legacy cut = %+v", c)
	}
}

// TestManifestCutFrontier: a new cut at or above an older watermark prunes
// it; a lower cut coexists (the straggler case); overflow drops the oldest.
func TestManifestCutFrontier(t *testing.T) {
	key := func(sec int64) Key { return Key{Time: time.Unix(sec, 0).UTC(), Seq: uint64(sec)} }
	var m Manifest
	m.AddCut(Cut{Watermark: key(100), Marks: []ShardMark{{SegGen: 1}}})
	// A later compaction with a LOWER cut (stragglers arrived and mostly
	// survived) must not replace the older cut — both stay.
	m.AddCut(Cut{Watermark: key(50), Marks: []ShardMark{{SegGen: 2}}})
	if len(m.Cuts) != 2 || m.Cuts[0].Watermark.Seq != 100 || m.Cuts[1].Watermark.Seq != 50 {
		t.Fatalf("frontier = %+v, want [100, 50]", m.Cuts)
	}
	// A cut at or above every existing watermark subsumes them all.
	m.AddCut(Cut{Watermark: key(100), Marks: []ShardMark{{SegGen: 3}}})
	if len(m.Cuts) != 1 || m.Cuts[0].Mark(0).SegGen != 3 {
		t.Fatalf("frontier = %+v, want the one subsuming cut", m.Cuts)
	}
	// Zero cuts record nothing.
	m.AddCut(Cut{})
	if len(m.Cuts) != 1 {
		t.Fatalf("zero cut must be ignored: %+v", m.Cuts)
	}
	// Overflow drops the oldest (highest-watermark) cut.
	m = Manifest{}
	for i := 40; i > 0; i-- {
		m.AddCut(Cut{Watermark: key(int64(i * 10))})
	}
	if len(m.Cuts) != 32 {
		t.Fatalf("frontier size = %d, want capped 32", len(m.Cuts))
	}
	if m.Cuts[0].Watermark.Seq != 320 {
		t.Fatalf("overflow kept %+v first, want the 32 newest cuts", m.Cuts[0].Watermark)
	}
}

func TestKeyOrder(t *testing.T) {
	a := Key{Time: t0, Seq: 1}
	b := Key{Time: t0, Seq: 2}
	c := Key{Time: t0.Add(time.Second), Seq: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("key order broken")
	}
	if (Key{}).Less(Key{}) {
		t.Fatal("equal keys must not be Less")
	}
}

// TestSegmentVersionsRoundTrip: a freshly written segment file — the one
// format this build has — opens with, per chunk, exactly the stats summary
// recomputed from the source events, and decodes to those events.
func TestSegmentVersionsRoundTrip(t *testing.T) {
	events := fixtureCorpus(1, 0)
	path := filepath.Join(t.TempDir(), SegmentFileName(1))
	if _, err := WriteSegment(path, events); err != nil {
		t.Fatal(err)
	}
	info, seqs, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Count != len(events) || len(seqs) != len(events) || info.NumChunks() != 3 {
		t.Fatalf("count=%d seqs=%d chunks=%d, want %d events in 3 chunks", info.Count, len(seqs), info.NumChunks(), len(events))
	}
	for k := 0; k < info.NumChunks(); k++ {
		st := info.Sparse[k].Stats
		if st == nil {
			t.Fatalf("chunk %d carries no stats", k)
		}
		start, end := info.ChunkRange(k)
		// Recompute the expected summary from the source events.
		wantSrc := map[string]int{}
		weatherN, taggedN := 0, 0
		wantSum, wantMin, wantMax := 0.0, math.Inf(1), math.Inf(-1)
		for _, ev := range events[start:end] {
			if ev.Tuple.Source != "" {
				wantSrc[ev.Tuple.Source]++
			}
			if ev.Tuple.Schema != weather {
				continue
			}
			weatherN++
			if ev.Tuple.Theme == "weather" {
				taggedN++
			}
			f := ev.Tuple.Values[0].AsFloat()
			wantSum += f
			wantMin = math.Min(wantMin, f)
			wantMax = math.Max(wantMax, f)
		}
		if !st.MaxTime.Equal(events[end-1].Tuple.Time) {
			t.Fatalf("chunk %d max time = %v, want %v", k, st.MaxTime, events[end-1].Tuple.Time)
		}
		if len(st.SourceCounts) != len(wantSrc) {
			t.Fatalf("chunk %d sources = %v, want %v", k, st.SourceCounts, wantSrc)
		}
		for src, n := range wantSrc {
			if st.SourceCounts[src] != n {
				t.Fatalf("chunk %d source %q = %d, want %d", k, src, st.SourceCounts[src], n)
			}
		}
		// An untagged weather event still matches its schema's theme.
		if st.ThemeCounts["weather"] != weatherN || st.PrimaryThemeCounts["weather"] != taggedN {
			t.Fatalf("chunk %d themes = %v / %v, want weather %d / %d",
				k, st.ThemeCounts, st.PrimaryThemeCounts, weatherN, taggedN)
		}
		fs, ok := st.Fields["temperature"]
		if !ok || fs.NonNull != weatherN || fs.Num != weatherN {
			t.Fatalf("chunk %d temperature stats = %+v (present %v)", k, fs, ok)
		}
		if float64(fs.Min) != wantMin || float64(fs.Max) != wantMax || math.Abs(float64(fs.Sum)-wantSum) > 1e-9 {
			t.Fatalf("chunk %d temperature frame = %+v, want sum=%v min=%v max=%v",
				k, fs, wantSum, wantMin, wantMax)
		}
		// The NaN payloads are counted, not folded.
		if nf := st.Fields["f"]; nf.NonFinite == 0 || nf.Num+nf.NonFinite != nf.NonNull {
			t.Fatalf("chunk %d field f = %+v, want its NaNs set aside", k, nf)
		}
	}
	pes, err := info.ReadAll()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	sameEvents(t, pes, events)
}

func TestParseSegmentFileName(t *testing.T) {
	for name, want := range map[string]int{
		"seg-00000001.seg": 1,
		"seg-123.seg":      123,
		"seg-0.seg":        0,
	} {
		if got, err := ParseSegmentFileName(name); err != nil || got != want {
			t.Errorf("%q = %d, %v; want %d", name, got, err, want)
		}
	}
	for _, name := range []string{
		"seg-.seg",       // no digits
		"seg-12.seg.seg", // the old Sscanf parse read this as gen 12
		"seg-12x.seg",    // trailing garbage inside the number
		"seg-1.2.seg",    // not an integer
		"12.seg",         // missing prefix
		"seg-12",         // missing suffix
		"seg--1.seg",     // sign is garbage, gens are non-negative
	} {
		if gen, err := ParseSegmentFileName(name); err == nil {
			t.Errorf("%q parsed as gen %d, want error", name, gen)
		}
	}
}

func TestListSegmentsRejectsCorruptNames(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSegment(filepath.Join(dir, SegmentFileName(3)), []Event{wEvent(1, 0, 20, "a")}); err != nil {
		t.Fatal(err)
	}
	if _, next, err := ListSegments(dir); err != nil || next != 4 {
		t.Fatalf("clean dir: next=%d err=%v", next, err)
	}
	// A mangled name used to be half-parsed (or silently treated as gen 0),
	// which mis-scopes retention watermarks; now the listing fails loudly.
	if err := os.WriteFile(filepath.Join(dir, "seg-3extra.seg"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ListSegments(dir); err == nil {
		t.Fatal("corrupt segment name must fail the listing")
	}
}

// TestOpenSegmentRejectsOldFormats: a file wearing the magic of either
// retired format is refused at open, with an error that names the file and
// says how to convert it — not "unknown magic", and never a decode attempt.
func TestOpenSegmentRejectsOldFormats(t *testing.T) {
	dir := t.TempDir()
	for _, magic := range []string{"SLSEG001", "SLSEG002"} {
		path := filepath.Join(dir, SegmentFileName(1))
		head := append([]byte(magic), 0, 0, 0, 0, 0, 0, 0, 0) // magic, header length 0, CRC 0
		if err := os.WriteFile(path, head, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenSegment(path)
		if err == nil {
			t.Fatalf("%s: opened", magic)
		}
		for _, want := range []string{path, magic, "no longer read", "build that still converts"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %q", magic, err, want)
			}
		}
	}
}

// TestZeroTimeValueEncoding: a time Value holding the zero time is still
// written as (seconds 0, nanoseconds -1) — not as year 1's Unix seconds —
// and reads back as the zero time, whatever stt.Value keeps in memory.
func TestZeroTimeValueEncoding(t *testing.T) {
	got := appendValue(nil, stt.Time(time.Time{}))
	want := appendVarint(appendVarint([]byte{byte(stt.KindTime)}, 0), -1)
	if string(got) != string(want) {
		t.Fatalf("zero time encodes as %x, want %x", got, want)
	}
	d := &decoder{data: got}
	if v := d.value(); d.err != nil || v.Kind() != stt.KindTime || !v.AsTime().IsZero() {
		t.Fatalf("zero time decodes as %v (%v)", v, d.err)
	}
	epoch := appendValue(nil, stt.Time(time.Unix(0, 0)))
	d = &decoder{data: epoch}
	if v := d.value(); d.err != nil || v.AsTime().IsZero() || !v.AsTime().Equal(time.Unix(0, 0)) {
		t.Fatalf("1970-01-01 decodes as %v (%v)", v, d.err)
	}
}
