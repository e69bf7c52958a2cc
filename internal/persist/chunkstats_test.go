package persist

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"streamloader/internal/sensor"
	"streamloader/internal/stt"
)

// chunkStatsRef is ChunkStatsFor as it stood before it folded by schema
// slot: per event, a map increment per source and theme and a by-name field
// stats lookup and store. It is kept verbatim as the reference
// FuzzChunkStatsEqualsReference holds the production fold to.
func chunkStatsRef(events []Event) *ChunkStats {
	cs := &ChunkStats{
		MaxTime:            events[len(events)-1].Tuple.Time,
		SourceCounts:       map[string]int{},
		ThemeCounts:        map[string]int{},
		PrimaryThemeCounts: map[string]int{},
		Fields:             map[string]FieldStats{},
	}
	for _, ev := range events {
		t := ev.Tuple
		if t.Source != "" {
			cs.SourceCounts[t.Source]++
		}
		if t.Theme != "" {
			cs.ThemeCounts[t.Theme]++
			cs.PrimaryThemeCounts[t.Theme]++
		}
		for _, theme := range t.Schema.Themes {
			if theme != t.Theme {
				cs.ThemeCounts[theme]++
			}
		}
		for i, n := 0, t.Schema.NumFields(); i < n && i < len(t.Values); i++ {
			v := t.Values[i]
			if v.IsNull() {
				continue
			}
			name := t.Schema.Field(i).Name
			fs := cs.Fields[name]
			fs.NonNull++
			if v.Kind().Numeric() {
				f := v.AsFloat()
				if math.IsNaN(f) || math.IsInf(f, 0) {
					// NaN/Inf cannot ride in the JSON frame; count it so
					// pushdown knows the frame is partial.
					fs.NonFinite++
				} else {
					if fs.Num == 0 {
						fs.Min, fs.Max = StatFloat(f), StatFloat(f)
					} else {
						fs.Min = StatFloat(math.Min(float64(fs.Min), f))
						fs.Max = StatFloat(math.Max(float64(fs.Max), f))
					}
					fs.Num++
					fs.Sum += StatFloat(f)
				}
			}
			cs.Fields[name] = fs
		}
	}
	for name, fs := range cs.Fields {
		if math.IsInf(float64(fs.Sum), 0) {
			// Finite values can still overflow their sum; poison the frame.
			fs.NonFinite += fs.Num
			fs.Num, fs.Sum, fs.Min, fs.Max = 0, 0, 0, 0
			cs.Fields[name] = fs
		}
	}
	return cs
}

// chunkStatsDiff describes the first difference between two chunk stats,
// or returns "" when they agree exactly: times by Equal, counts by value
// with a nil map equal to an empty one, and every float by its bits.
func chunkStatsDiff(got, want *ChunkStats) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("stats %v, want %v", got, want)
	}
	if got == nil {
		return ""
	}
	if !got.MaxTime.Equal(want.MaxTime) {
		return fmt.Sprintf("MaxTime %v, want %v", got.MaxTime, want.MaxTime)
	}
	for _, m := range []struct {
		name      string
		got, want map[string]int
	}{
		{"SourceCounts", got.SourceCounts, want.SourceCounts},
		{"ThemeCounts", got.ThemeCounts, want.ThemeCounts},
		{"PrimaryThemeCounts", got.PrimaryThemeCounts, want.PrimaryThemeCounts},
	} {
		if d := countsDiff(m.got, m.want); d != "" {
			return m.name + ": " + d
		}
	}
	if len(got.Fields) != len(want.Fields) {
		return fmt.Sprintf("Fields %v, want %v", got.Fields, want.Fields)
	}
	for name, w := range want.Fields {
		g, ok := got.Fields[name]
		if !ok || g.NonNull != w.NonNull || g.Num != w.Num || g.NonFinite != w.NonFinite ||
			math.Float64bits(float64(g.Sum)) != math.Float64bits(float64(w.Sum)) ||
			math.Float64bits(float64(g.Min)) != math.Float64bits(float64(w.Min)) ||
			math.Float64bits(float64(g.Max)) != math.Float64bits(float64(w.Max)) {
			return fmt.Sprintf("Fields[%q] = %+v (present %v), want %+v", name, g, ok, w)
		}
	}
	return ""
}

// countsDiff compares two count maps, a nil map equal to an empty one.
func countsDiff(got, want map[string]int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%v, want %v", got, want)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Sprintf("%v, want %v", got, want)
		}
	}
	return ""
}

// Two schemas that share the field name "x" at different slots, so a fold
// that keyed stats by slot instead of by name would split x's frame.
var (
	statsSchemaA = stt.MustSchema([]stt.Field{
		stt.NewField("x", stt.KindFloat, ""),
		stt.NewField("y", stt.KindInt, ""),
		stt.NewField("s", stt.KindString, ""),
	}, stt.GranSecond, stt.SpatPoint, "weather", "env")
	statsSchemaB = stt.MustSchema([]stt.Field{
		stt.NewField("s", stt.KindString, ""),
		stt.NewField("z", stt.KindFloat, ""),
		stt.NewField("x", stt.KindFloat, ""),
	}, stt.GranSecond, stt.SpatPoint, "traffic")
)

// statsFloats are the float payloads the chunk-stats fuzz draws from: the
// non-finite ones, a pair whose sum overflows to +Inf, signed zeros and
// ordinary readings.
var statsFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	0, math.Copysign(0, -1), 1.5, -2.25, 21.7, 0.1, 1e-300, 7,
}

// statsChunk derives a time-ordered chunk of 1 to 300 events from data.
// Each event draws its schema, its primary theme and source (either may be
// empty, and a theme may or may not be one of its schema's), how many values
// it carries (possibly fewer or more than its schema has fields) and each
// value's kind and payload, finite or not.
func statsChunk(data []byte) []Event {
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	n := int(next())<<8 | int(next())
	n = n%300 + 1
	// Many distinct sources and themes, empty ones among them.
	themes := []string{"", "weather", "traffic", "env", "t4", "t5", "t6", "t7", "t8", "t9"}
	sources := []string{"", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11"}
	events := make([]Event, 0, n)
	ts := t0
	for k := 0; k < n; k++ {
		ctl := next()
		schema := statsSchemaA
		if ctl&1 != 0 {
			schema = statsSchemaB
		}
		ts = ts.Add(time.Duration(ctl>>6) * time.Second)
		nvals := schema.NumFields() + int(next()%5) - 2
		vals := make([]stt.Value, max(nvals, 0))
		for j := range vals {
			b := next()
			switch b % 6 {
			case 0:
				vals[j] = stt.Null()
			case 1:
				vals[j] = stt.Int(int64(int8(next())) << (next() % 56))
			case 2, 3:
				vals[j] = stt.Float(statsFloats[int(next())%len(statsFloats)])
			case 4:
				vals[j] = stt.String(sources[int(next())%len(sources)])
			case 5:
				vals[j] = stt.Bool(next()%2 == 0)
			}
		}
		events = append(events, Event{Seq: uint64(k + 1), Tuple: &stt.Tuple{
			Schema: schema, Values: vals, Time: ts,
			Theme:  themes[int(ctl>>1)%len(themes)],
			Source: sources[int(ctl>>4)%len(sources)],
		}})
	}
	return events
}

// FuzzChunkStatsEqualsReference holds ChunkStatsFor to chunkStatsRef on
// generated chunks: two schemas sharing a field name at different slots,
// nulls, NaN and ±Inf, sums that overflow, empty themes and sources, and
// tuples with more or fewer values than their schema has fields. The two
// must agree exactly, every float by its bits.
func FuzzChunkStatsEqualsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 40, 0x13, 2, 2, 3, 3, 2, 4, 1})
	f.Add([]byte{1, 0, 0xff, 4, 2, 3, 2, 4, 2, 3, 1, 0, 0, 5, 1})
	f.Add([]byte{0, 9, 0x40, 2, 3, 3, 3, 4, 0x41, 2, 2, 3, 2, 3, 3, 3}) // +Inf and MaxFloat64
	// Every source and theme, interleaved.
	many := []byte{0, 199}
	for k := range 200 {
		many = append(many, byte(k*37), 0, 2, byte(k), 4, byte(k), 3, byte(k*7))
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		events := statsChunk(data)
		if d := chunkStatsDiff(ChunkStatsFor(events), chunkStatsRef(events)); d != "" {
			t.Fatalf("ChunkStatsFor differs from the reference on %d events: %s", len(events), d)
		}
	})
}

// TestChunkStatsEqualsReferenceOnCorpora runs the same comparison on every
// chunk of fixtureCorpus and of each bench-shaped segment.
func TestChunkStatsEqualsReferenceOnCorpora(t *testing.T) {
	for _, p := range segmentPins {
		events := p.events(t)
		for start := 0; start < len(events); start += IndexEvery {
			chunk := events[start:min(start+IndexEvery, len(events))]
			if d := chunkStatsDiff(ChunkStatsFor(chunk), chunkStatsRef(chunk)); d != "" {
				t.Fatalf("%s, chunk at %d: %s", p.name, start, d)
			}
		}
	}
}

// TestWrittenAndReopenedSegmentInfoAgree holds the SegmentInfo WriteSegment
// returns — the one the spiller and compactor install in the live store —
// to the one OpenSegment decodes from the same file, which a restarted
// store uses: counts, head and tail, layout and every chunk's stats. A
// difference would make a query answer differently before and after a
// restart.
func TestWrittenAndReopenedSegmentInfoAgree(t *testing.T) {
	dir := t.TempDir()
	for i, p := range segmentPins {
		t.Run(p.name, func(t *testing.T) {
			path := filepath.Join(dir, SegmentFileName(i+1))
			live, err := WriteSegment(path, p.events(t))
			if err != nil {
				t.Fatal(err)
			}
			open, _, err := OpenSegment(path)
			if err != nil {
				t.Fatal(err)
			}
			if live.Path != open.Path || live.Count != open.Count || live.Bytes != open.Bytes || live.eventOff != open.eventOff {
				t.Fatalf("path/count/bytes/eventOff = %s/%d/%d/%d live, %s/%d/%d/%d reopened",
					live.Path, live.Count, live.Bytes, live.eventOff, open.Path, open.Count, open.Bytes, open.eventOff)
			}
			for _, k := range []struct {
				name       string
				live, open Key
			}{{"Head", live.Head, open.Head}, {"Tail", live.Tail, open.Tail}} {
				if !k.live.Time.Equal(k.open.Time) || k.live.Seq != k.open.Seq {
					t.Fatalf("%s = %v live, %v reopened", k.name, k.live, k.open)
				}
			}
			for _, m := range []struct {
				name       string
				live, open map[string]int
			}{
				{"SourceCounts", live.SourceCounts, open.SourceCounts},
				{"ThemeCounts", live.ThemeCounts, open.ThemeCounts},
				{"PrimaryThemeCounts", live.PrimaryThemeCounts, open.PrimaryThemeCounts},
			} {
				if d := countsDiff(m.live, m.open); d != "" {
					t.Fatalf("%s live vs reopened: %s", m.name, d)
				}
			}
			if len(live.schemas) != len(open.schemas) {
				t.Fatalf("%d schemas live, %d reopened", len(live.schemas), len(open.schemas))
			}
			for k := range live.schemas {
				lj, _ := json.Marshal(encodeSchema(live.schemas[k]))
				oj, _ := json.Marshal(encodeSchema(open.schemas[k]))
				if string(lj) != string(oj) {
					t.Fatalf("schema %d = %s live, %s reopened", k, lj, oj)
				}
			}
			if len(live.Sparse) != len(open.Sparse) {
				t.Fatalf("%d chunks live, %d reopened", len(live.Sparse), len(open.Sparse))
			}
			for k, l := range live.Sparse {
				o := open.Sparse[k]
				if l.Pos != o.Pos || !l.Time.Equal(o.Time) || l.Off != o.Off || l.CRC != o.CRC {
					t.Fatalf("chunk %d = %+v live, %+v reopened", k, l, o)
				}
				if d := chunkStatsDiff(l.Stats, o.Stats); d != "" {
					t.Fatalf("chunk %d stats live vs reopened: %s", k, d)
				}
			}
		})
	}
}

// TestNegativeZeroSurvivesReopen: a chunk whose field stats hold −0 must
// reopen with −0, bit for bit, as the events themselves do. A JSON
// omitempty drops −0 as empty, so the reopened stats read +0, and a MIN
// answered from them after a restart differs from the same MIN folded over
// the decoded events.
func TestNegativeZeroSurvivesReopen(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, temps := range [][]float64{{negZero}, {negZero, negZero}, {0, negZero}, {negZero, 1.5}} {
		var events []Event
		for i, temp := range temps {
			events = append(events, wEvent(uint64(i+1), time.Duration(i)*time.Second, temp, "st"))
		}
		path := filepath.Join(t.TempDir(), SegmentFileName(1))
		live, err := WriteSegment(path, events)
		if err != nil {
			t.Fatal(err)
		}
		open, _, err := OpenSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(live.Sparse) != 1 || len(open.Sparse) != 1 {
			t.Fatalf("%v: %d chunks live, %d reopened, want 1", temps, len(live.Sparse), len(open.Sparse))
		}
		if d := chunkStatsDiff(open.Sparse[0].Stats, live.Sparse[0].Stats); d != "" {
			t.Errorf("%v: reopened vs live: %s", temps, d)
		}
		if d := chunkStatsDiff(live.Sparse[0].Stats, chunkStatsRef(events)); d != "" {
			t.Errorf("%v: live vs reference: %s", temps, d)
		}
	}
}

// BenchmarkWriteSegment times WriteSegment on 4 096-event bench-shaped
// segments, file publication included, and reports ns/event.
func BenchmarkWriteSegment(b *testing.B) {
	for _, c := range []struct {
		name string
		typ  sensor.Type
	}{{"temperature", sensor.TypeTemperature}, {"traffic", sensor.TypeTraffic}} {
		b.Run(c.name, func(b *testing.B) {
			events := benchSegmentEvents(b, c.typ, 0, benchSegmentLen)
			path := filepath.Join(b.TempDir(), SegmentFileName(1))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := WriteSegment(path, events); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}

// BenchmarkChunkStatsFor times the chunk-stats fold over every chunk of a
// 4 096-event bench-shaped temperature segment and reports ns/event.
func BenchmarkChunkStatsFor(b *testing.B) {
	events := benchSegmentEvents(b, sensor.TypeTemperature, 0, benchSegmentLen)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for start := 0; start < len(events); start += IndexEvery {
			ChunkStatsFor(events[start:min(start+IndexEvery, len(events))])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// TestSegmentWriterAllocs gates the allocations of one WriteSegment on a
// 4 096-event bench-shaped segment, file publication included, and of one
// ChunkStatsFor on a 256-event chunk. The writer's scratch is pooled, so
// what remains is the SegmentInfo, each chunk's stats, the header's JSON
// encoding (most of the rest) and the file calls. Before the fold went by
// schema slot with pooled scratch the counts were 555, 637 and 9; they are
// 404, 437 and 9 now. A WriteSegment bound sits 2 % above today's count, so
// a pooled buffer the collector drops now and then does not fail it, and
// still well below the old count. ChunkStatsFor's 9 are the objects it
// returns — the ChunkStats and its four maps, two allocations each — and
// were the same 9 before; its fold allocates nothing, and a fold scratch
// lost to the collector adds a fraction of one allocation per run, which
// AllocsPerRun's integer average drops.
func TestSegmentWriterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector; the counts are exact only without it")
	}
	for _, c := range []struct {
		typ             sensor.Type
		write, chunkFor float64
	}{
		{sensor.TypeTemperature, 412, 9},
		{sensor.TypeTraffic, 446, 9},
	} {
		events := benchSegmentEvents(t, c.typ, 0, benchSegmentLen)
		path := filepath.Join(t.TempDir(), SegmentFileName(1))
		write := testing.AllocsPerRun(20, func() {
			if _, err := WriteSegment(path, events); err != nil {
				t.Fatal(err)
			}
		})
		if write > c.write {
			t.Errorf("%s: WriteSegment made %.0f allocations, want at most %.0f", c.typ, write, c.write)
		}
		chunk := events[:IndexEvery]
		if stats := testing.AllocsPerRun(50, func() { ChunkStatsFor(chunk) }); stats > c.chunkFor {
			t.Errorf("%s: ChunkStatsFor made %.0f allocations on a %d-event chunk, want at most %.0f", c.typ, stats, IndexEvery, c.chunkFor)
		}
	}
}
