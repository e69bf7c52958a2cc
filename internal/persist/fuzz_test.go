package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamloader/internal/stt"
)

// Native Go fuzzing over the two trust boundaries of the durable layer:
// the binary tuple codec (every WAL record and segment chunk goes through
// it) and WAL replay (the one code path that parses bytes a crash may have
// torn arbitrarily). The properties under fuzz:
//
//   - encode→decode round-trips every representable tuple exactly;
//   - decoding any prefix of a valid encoding fails cleanly, never panics;
//   - replaying a WAL whose tail is arbitrary bytes never panics, never
//     drops an acked (fully-framed) record, only truncates — and a second
//     replay of the truncated file is a fixed point.

// fuzzValues derives a deterministic payload from raw fuzz bytes: each
// value's kind and content are read off the stream, covering every Value
// kind including null and adversarial strings.
func fuzzValues(data []byte) []stt.Value {
	var vals []stt.Value
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	for i < len(data) && len(vals) < 32 {
		switch next() % 6 {
		case 0:
			vals = append(vals, stt.Null())
		case 1:
			vals = append(vals, stt.Bool(next()%2 == 1))
		case 2:
			var v int64
			for k := 0; k < 8; k++ {
				v = v<<8 | int64(next())
			}
			vals = append(vals, stt.Int(v))
		case 3:
			var bits uint64
			for k := 0; k < 8; k++ {
				bits = bits<<8 | uint64(next())
			}
			vals = append(vals, stt.Float(math.Float64frombits(bits)))
		case 4:
			n := int(next() % 16)
			if i+n > len(data) {
				n = len(data) - i
			}
			vals = append(vals, stt.String(string(data[i:i+n])))
			i += n
		case 5:
			var sec int64
			for k := 0; k < 6; k++ {
				sec = sec<<8 | int64(next())
			}
			vals = append(vals, stt.Time(time.Unix(sec, int64(next())).UTC()))
		}
	}
	return vals
}

// sameValue compares decoded against encoded values bit-exactly: floats by
// their bits (NaN payloads must survive), times as instants.
func sameValue(got, want stt.Value) bool {
	if got.Kind() != want.Kind() {
		return false
	}
	switch want.Kind() {
	case stt.KindFloat:
		return math.Float64bits(got.AsFloat()) == math.Float64bits(want.AsFloat())
	case stt.KindTime:
		return got.AsTime().Equal(want.AsTime())
	default:
		return got.Equal(want)
	}
}

// FuzzCodecRoundTrip encodes one tuple built from fuzzed primitives and
// payload bytes, decodes it back, and requires exact equality; then decodes
// truncated prefixes of the encoding, which must error without panicking
// and without fabricating a tuple.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(1458000000), int64(0), 34.7, 135.5, "weather", "umeda", []byte{2, 1, 2, 3})
	f.Add(uint64(0), int64(0), int64(-1), 0.0, 0.0, "", "", []byte{})
	f.Add(uint64(1<<63), int64(-62135596800), int64(999999999), math.Inf(-1), math.NaN(),
		"th\x00eme", "söurce", []byte{4, 5, 'h', 'i', '!', 0xff, 0xfe, 3, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, seq uint64, sec, nsec int64, lat, lon float64, theme, source string, payload []byte) {
		want := Event{Seq: seq, Tuple: &stt.Tuple{
			Schema: kitchenSink,
			Values: fuzzValues(payload),
			Time:   time.Unix(sec, nsec).UTC(),
			Lat:    lat, Lon: lon,
			Theme: theme, Source: source, Seq: seq >> 1,
		}}
		buf := appendEvent(nil, want, 7)
		dict := map[uint64]*stt.Schema{7: kitchenSink}

		d := &decoder{data: buf}
		got := d.event(dict)
		if d.err != nil {
			t.Fatalf("decoding a fresh encoding: %v", d.err)
		}
		if d.pos != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", d.pos, len(buf))
		}
		g, w := got.Tuple, want.Tuple
		if got.Seq != want.Seq || g.Seq != w.Seq || g.Theme != w.Theme || g.Source != w.Source {
			t.Fatalf("meta mismatch: %+v vs %+v", got, want)
		}
		if !g.Time.Equal(w.Time) {
			t.Fatalf("time = %v, want %v", g.Time, w.Time)
		}
		if math.Float64bits(g.Lat) != math.Float64bits(w.Lat) ||
			math.Float64bits(g.Lon) != math.Float64bits(w.Lon) {
			t.Fatalf("pos = (%v,%v), want (%v,%v)", g.Lat, g.Lon, w.Lat, w.Lon)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%d values, want %d", len(g.Values), len(w.Values))
		}
		for i := range g.Values {
			if !sameValue(g.Values[i], w.Values[i]) {
				t.Fatalf("value %d = %v, want %v", i, g.Values[i], w.Values[i])
			}
		}

		// Every proper prefix must fail cleanly — prefixes are exactly what
		// a torn write leaves behind.
		for _, cut := range []int{0, 1, len(buf) / 2, len(buf) - 1} {
			if cut >= len(buf) {
				continue
			}
			dp := &decoder{data: buf[:cut]}
			dp.event(dict)
			if dp.err == nil {
				t.Fatalf("decoding %d-byte prefix of %d succeeded", cut, len(buf))
			}
		}
	})
}

// FuzzWALReplay writes nValid well-formed records, splices arbitrary bytes
// after them (and as a whole second file), and replays. Replay must not
// panic, must emit every fully-framed record in order — the valid prefix
// first — and must only ever truncate: a second replay of what the first
// kept has to emit the identical sequence with nothing left to cut.
func FuzzWALReplay(f *testing.F) {
	f.Add(uint8(3), []byte("garbage tail \x00\xff\x13"))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0x04, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	f.Add(uint8(7), bytes.Repeat([]byte{0}, 64))
	f.Fuzz(func(t *testing.T, nValid uint8, junk []byte) {
		dir := t.TempDir()
		n := int(nValid % 8)
		w, err := OpenWAL(dir, WALOptions{Sync: SyncNever}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			ev := wEvent(uint64(i), time.Duration(i)*time.Minute, float64(i), "fuzz")
			if err := w.Append([]Event{ev}); err != nil {
				t.Fatal(err)
			}
			want = append(want, ev)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Torn tail on the live file, plus a later file of pure junk.
		appendBytes(t, filepath.Join(dir, walFileName(1)), junk)
		if len(junk) > 0 {
			if err := os.WriteFile(filepath.Join(dir, walFileName(2)), junk, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		replay := func() []Event {
			var got []Event
			res, err := ReplayWAL(dir, func(ev Event, _ Pos) error {
				if ev.Tuple == nil || ev.Tuple.Schema == nil {
					t.Fatal("replay emitted a malformed event")
				}
				got = append(got, ev)
				return nil
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res.Events != len(got) {
				t.Fatalf("res.Events = %d, emitted %d", res.Events, len(got))
			}
			return got
		}
		first := replay()
		// No acked record may vanish, and the valid prefix replays first,
		// unchanged. (Junk that happens to frame as valid records is not
		// phantom data — it replays like any fully-written record — but it
		// can only ever follow the prefix.)
		if len(first) < len(want) {
			t.Fatalf("replay emitted %d events, %d were acked", len(first), len(want))
		}
		for i, ev := range want {
			if first[i].Seq != ev.Seq || !first[i].Tuple.Time.Equal(ev.Tuple.Time) {
				t.Fatalf("replay[%d] = %+v, want %+v", i, first[i], ev)
			}
		}
		// The first replay truncated every bad tail; replaying the
		// truncated state must be a fixed point.
		second := replay()
		if len(second) != len(first) {
			t.Fatalf("second replay emitted %d events, first %d", len(second), len(first))
		}
		for i := range second {
			if second[i].Seq != first[i].Seq {
				t.Fatalf("second replay diverged at %d", i)
			}
		}
	})
}

func appendBytes(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSegmentRoundTrip writes fuzz-derived events as a segment file,
// reopens it, and requires a bit-exact event round-trip — NaN payloads and
// empty dictionaries included — and the same events from the rows decoder
// (cached or not) and the column decoder. It then truncates the file at arbitrary
// points, one of them fuzz-chosen: opening or reading a truncated segment
// must error cleanly, never panic and never fabricate events.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte{2, 1, 2, 3})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(9), []byte{3, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1}) // NaN payload
	f.Add(uint8(255), bytes.Repeat([]byte{4, 0}, 40))        // empty strings
	f.Fuzz(func(t *testing.T, count uint8, payload []byte) {
		n := int(count)%40 + 1
		vals := fuzzValues(payload)
		events := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			schema := weather
			evVals := []stt.Value{stt.Float(float64(i)), stt.String("st")}
			if i%3 == 0 {
				schema = kitchenSink
				evVals = vals
			}
			theme, source := "weather", "st"
			if i%5 == 0 {
				theme, source = "", "" // empty dictionary entries
			}
			events = append(events, Event{Seq: uint64(i + 1), Tuple: &stt.Tuple{
				Schema: schema,
				Values: evVals,
				Time:   t0.Add(time.Duration(int(count)) * time.Hour * time.Duration(i)),
				Lat:    float64(i) * 0.5, Lon: -float64(i),
				Theme: theme, Source: source, Seq: uint64(i),
			}})
		}
		SortEvents(events)

		dir := t.TempDir()
		path := filepath.Join(dir, SegmentFileName(1))
		if _, err := WriteSegment(path, events); err != nil {
			t.Fatalf("write: %v", err)
		}
		info, seqs, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if info.Count != n || len(seqs) != n {
			t.Fatalf("count=%d seqs=%d, want %d events", info.Count, len(seqs), n)
		}
		got, err := info.ReadAll()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if len(got) != n {
			t.Fatalf("read %d events, want %d", len(got), n)
		}
		for i, pe := range got {
			w := events[i]
			if pe.Seq != w.Seq || pe.Tuple.Seq != w.Tuple.Seq ||
				pe.Tuple.Theme != w.Tuple.Theme || pe.Tuple.Source != w.Tuple.Source {
				t.Fatalf("event %d meta = %+v, want %+v", i, pe, w)
			}
			if !pe.Tuple.Time.Equal(w.Tuple.Time) {
				t.Fatalf("event %d time = %v, want %v", i, pe.Tuple.Time, w.Tuple.Time)
			}
			if math.Float64bits(pe.Tuple.Lat) != math.Float64bits(w.Tuple.Lat) ||
				math.Float64bits(pe.Tuple.Lon) != math.Float64bits(w.Tuple.Lon) {
				t.Fatalf("event %d pos mismatch", i)
			}
			if len(pe.Tuple.Values) != len(w.Tuple.Values) {
				t.Fatalf("event %d: %d values, want %d", i, len(pe.Tuple.Values), len(w.Tuple.Values))
			}
			for j := range pe.Tuple.Values {
				if !sameValue(pe.Tuple.Values[j], w.Tuple.Values[j]) {
					t.Fatalf("event %d value %d = %v, want %v", i, j, pe.Tuple.Values[j], w.Tuple.Values[j])
				}
			}
		}

		// The cached full read goes through the rows decoder, narrow reads
		// through the column decoder: both must tell the same story.
		requireDecodersAgree(t, info)

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 7, 8, 12, len(raw) / 2, len(raw) - 1, (int(count)<<8 + len(payload)*7919) % len(raw)} {
			requireTruncationFails(t, raw, cut, dir)
		}
	})
}
