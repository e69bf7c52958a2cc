package warehouse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

var t0 = time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)

var weather = stt.MustSchema([]stt.Field{
	stt.NewField("temperature", stt.KindFloat, "celsius"),
	stt.NewField("station", stt.KindString, ""),
}, stt.GranMinute, stt.SpatCellDistrict, "weather")

var social = stt.MustSchema([]stt.Field{
	stt.NewField("text", stt.KindString, ""),
}, stt.GranSecond, stt.SpatPoint, "social")

func wTuple(offset time.Duration, temp float64, station string, lat, lon float64) *stt.Tuple {
	tup := &stt.Tuple{
		Schema: weather,
		Values: []stt.Value{stt.Float(temp), stt.String(station)},
		Time:   t0.Add(offset),
		Lat:    lat, Lon: lon,
		Theme:  "weather",
		Source: station,
	}
	return tup.AlignSTT()
}

func sTuple(offset time.Duration, text string) *stt.Tuple {
	tup := &stt.Tuple{
		Schema: social,
		Values: []stt.Value{stt.String(text)},
		Time:   t0.Add(offset),
		Lat:    34.70, Lon: 135.50,
		Theme:  "social",
		Source: "twitter-1",
	}
	return tup.AlignSTT()
}

func loaded(t *testing.T) *Warehouse {
	t.Helper()
	w := New()
	tuples := []*stt.Tuple{
		wTuple(0, 20, "umeda", 34.70, 135.50),
		wTuple(time.Hour, 26, "umeda", 34.70, 135.50),
		wTuple(2*time.Hour, 30, "namba", 34.66, 135.50),
		wTuple(3*time.Hour, 15, "kyoto", 35.01, 135.77),
		sTuple(90*time.Minute, "heavy rain in Umeda"),
	}
	for _, tup := range tuples {
		if err := w.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestAppendValidation(t *testing.T) {
	w := New()
	if err := w.Append(nil); err == nil {
		t.Error("nil tuple must fail")
	}
	if err := w.Append(&stt.Tuple{}); err == nil {
		t.Error("schemaless tuple must fail")
	}
}

func TestSelectAll(t *testing.T) {
	w := loaded(t)
	if w.Len() != 5 {
		t.Fatalf("Len = %d", w.Len())
	}
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 {
		t.Fatalf("all = %d", len(evs))
	}
	// Event-time order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Tuple.Time.Before(evs[i-1].Tuple.Time) {
			t.Fatal("results out of time order")
		}
	}
}

func TestSelectTimeRange(t *testing.T) {
	w := loaded(t)
	evs, _, err := w.Select(context.Background(), Query{From: t0.Add(time.Hour), To: t0.Add(2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	// [1h, 2h): umeda@1h and tweet@1.5h.
	if len(evs) != 2 {
		t.Fatalf("range = %d, want 2", len(evs))
	}
}

func TestSelectRegion(t *testing.T) {
	w := loaded(t)
	evs, _, err := w.Select(context.Background(), Query{Region: &geo.Osaka})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 { // kyoto excluded
		t.Fatalf("region = %d, want 4", len(evs))
	}
}

func TestSelectThemes(t *testing.T) {
	w := loaded(t)
	evs, _, err := w.Select(context.Background(), Query{Themes: []string{"social"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Tuple.Source != "twitter-1" {
		t.Fatalf("social = %v", evs)
	}
	evs, _, _ = w.Select(context.Background(), Query{Themes: []string{"weather", "social"}})
	if len(evs) != 5 {
		t.Errorf("multi-theme = %d", len(evs))
	}
}

func TestSelectSources(t *testing.T) {
	w := loaded(t)
	evs, _, err := w.Select(context.Background(), Query{Sources: []string{"umeda"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("umeda = %d", len(evs))
	}
}

func TestSelectCondAcrossSchemas(t *testing.T) {
	w := loaded(t)
	// The condition type-checks against the weather schema only; social
	// events must be skipped, not error.
	evs, _, err := w.Select(context.Background(), Query{Cond: "temperature > 25"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("cond = %d, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Tuple.MustGet("temperature").AsFloat() <= 25 {
			t.Error("condition not applied")
		}
	}
}

func TestSelectCombined(t *testing.T) {
	w := loaded(t)
	evs, _, err := w.Select(context.Background(), Query{
		From:   t0,
		To:     t0.Add(4 * time.Hour),
		Region: &geo.Osaka,
		Themes: []string{"weather"},
		Cond:   "temperature >= 26",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("combined = %d, want 2", len(evs))
	}
}

func TestSelectLimit(t *testing.T) {
	w := loaded(t)
	evs, _, err := w.Select(context.Background(), Query{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("limit = %d", len(evs))
	}
	// Limit returns the earliest events.
	if !evs[0].Tuple.Time.Equal(t0) {
		t.Error("limit must keep time order")
	}
}

func TestCount(t *testing.T) {
	w := loaded(t)
	n, _, err := w.Count(context.Background(), Query{Themes: []string{"weather"}})
	if err != nil || n != 4 {
		t.Errorf("count = %d, %v", n, err)
	}
}

func TestStats(t *testing.T) {
	w := loaded(t)
	s := w.Stats()
	if s.Events != 5 || s.Sources != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.Themes["weather"] != 4 || s.Themes["social"] != 1 {
		t.Errorf("themes = %v", s.Themes)
	}
	if !s.Earliest.Equal(t0) || !s.Latest.Equal(t0.Add(3*time.Hour)) {
		t.Errorf("time bounds: %v .. %v", s.Earliest, s.Latest)
	}
}

func TestOutOfOrderAppends(t *testing.T) {
	w := New()
	// Append in reverse time order; the time index must stay sorted.
	for i := 9; i >= 0; i-- {
		if err := w.Append(wTuple(time.Duration(i)*time.Hour, 20, "s", 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Tuple.Time.Before(evs[i-1].Tuple.Time) {
			t.Fatal("time index broken by out-of-order appends")
		}
	}
	// Binary-searched range query still correct.
	evs, _, _ = w.Select(context.Background(), Query{From: t0.Add(2 * time.Hour), To: t0.Add(5 * time.Hour)})
	if len(evs) != 3 {
		t.Errorf("range after ooo appends = %d, want 3", len(evs))
	}
}

func TestSink(t *testing.T) {
	w := New()
	s := Sink{W: w}
	if err := s.Accept(wTuple(0, 20, "x", 34.7, 135.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Error("sink did not append")
	}
}

// Property: every query result equals a naive full scan with the same
// predicates.
func TestQuickSelectEqualsNaiveScan(t *testing.T) {
	f := func(seed int64, fromH, toH uint8, useRegion bool, themePick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := New()
		var all []*stt.Tuple
		for i := 0; i < 200; i++ {
			var tup *stt.Tuple
			if rng.Intn(3) == 0 {
				tup = sTuple(time.Duration(rng.Intn(240))*time.Minute, "text")
			} else {
				tup = wTuple(time.Duration(rng.Intn(240))*time.Minute,
					float64(rng.Intn(40)), "s",
					34.4+rng.Float64()*0.8, 135.2+rng.Float64()*0.8)
			}
			if w.Append(tup) != nil {
				return false
			}
			all = append(all, tup)
		}
		q := Query{
			From: t0.Add(time.Duration(fromH%5) * time.Hour),
			To:   t0.Add(time.Duration(toH%5) * time.Hour),
		}
		if q.To.Before(q.From) {
			q.From, q.To = q.To, q.From
		}
		if useRegion {
			q.Region = &geo.Osaka
		}
		themes := [][]string{nil, {"weather"}, {"social"}, {"weather", "social"}}
		q.Themes = themes[int(themePick)%len(themes)]

		got, _, err := w.Select(context.Background(), q)
		if err != nil {
			return false
		}
		want := 0
		for _, tup := range all {
			if tup.Time.Before(q.From) || !tup.Time.Before(q.To) {
				continue
			}
			if q.Region != nil && !q.Region.Contains(geo.Point{Lat: tup.Lat, Lon: tup.Lon}) {
				continue
			}
			if len(q.Themes) > 0 && !matchTheme(tup, q.Themes) {
				continue
			}
			want++
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSelectDurableEqualsSortAll holds Select's merge to the obvious
// answer over the disk path: every live event of the store gathered, then
// filtered, sorted and truncated. The store is Opened, spills and compacts,
// is reopened with compaction off and spills again — several overlapping
// cold files per shard, some with a retention skip, beside hot and
// straggler segments — and hundreds of events share each event time, so
// seqs order most of the page. Limits of 1, a chunk and one past it, and
// more than the window hit the merge's stop; theme, source and region
// filters make hot segments answer from index lists kept in append order.
func TestQuickSelectDurableEqualsSortAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		cfg := Config{
			Shards: 4, SegmentEvents: 300, SegmentSpan: 24 * time.Hour,
			DataDir: dir, HotSegments: 1, Sync: persist.SyncNever, CompactBelow: 400,
		}
		if rng.Intn(2) == 0 {
			cfg.ColdCacheBytes = -1
		}
		ingest := func(w *Warehouse, n int) {
			for i := 0; i < n; i++ {
				at := time.Duration(rng.Intn(20)) * time.Minute
				var tup *stt.Tuple
				if rng.Intn(4) == 0 {
					tup = sTuple(at, "text")
				} else {
					tup = wTuple(at, float64(rng.Intn(40)), fmt.Sprintf("st-%d", rng.Intn(6)),
						34.5+rng.Float64()*0.4, 135.3+rng.Float64()*0.4)
				}
				if err := w.Append(tup); err != nil {
					t.Fatal(err)
				}
			}
			w.DrainSpills()
		}
		w, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ingest(w, 4000)
		w.CompactNow()
		if w.Stats().Compactions == 0 {
			t.Errorf("seed %d: nothing compacted", seed)
			return false
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		cfg.CompactBelow = -1
		if w, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ingest(w, 4000)
		if rng.Intn(3) == 0 {
			w.SetRetention(5000 + rng.Intn(2500))
		}
		if w.Stats().SegmentsCold < 8 {
			t.Errorf("seed %d: only %d cold files", seed, w.Stats().SegmentsCold)
			return false
		}
		all := gatherLive(t, w)
		for i := 0; i < 30; i++ {
			q := randomPageQuery(rng, len(all))
			got, _, err := w.Select(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want := sortAllThenTruncate(all, q)
			if len(got) != len(want) {
				t.Errorf("seed %d %s: %d events, want %d", seed, queryString(q), len(got), len(want))
				return false
			}
			for j := range got {
				if got[j].Seq != want[j].Seq {
					t.Errorf("seed %d %s: [%d] seq %d, want %d", seed, queryString(q), j, got[j].Seq, want[j].Seq)
					return false
				}
			}
			if q.Limit > 0 {
				n, _, err := w.Count(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) {
					t.Errorf("seed %d %s: count %d, want %d", seed, queryString(q), n, len(want))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// gatherLive reads every live event of a store the slow way: each cold file
// whole, past its retention skip, and every in-memory segment.
func gatherLive(t *testing.T, w *Warehouse) []Event {
	t.Helper()
	var all []Event
	for _, s := range w.shards {
		s.mu.RLock()
		for _, cs := range s.cold {
			evs, err := cs.live()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, evs...)
		}
		for _, seg := range s.segs {
			for _, ord := range seg.byTime {
				all = append(all, seg.events[ord])
			}
		}
		s.mu.RUnlock()
	}
	if len(all) != w.Len() {
		t.Fatalf("gathered %d events, store holds %d", len(all), w.Len())
	}
	return all
}

// sortAllThenTruncate is the answer Select must give: filter everything,
// sort by (time, seq), cut at the limit.
func sortAllThenTruncate(all []Event, q Query) []Event {
	var out []Event
	conds := condCache{}
	for _, ev := range all {
		if ok, _ := matchEvent(ev, &q, conds); ok {
			out = append(out, ev)
		}
	}
	persist.SortEvents(out)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// randomPageQuery draws a window (sometimes open-ended), filters and a
// limit: none, 1, a chunk, a chunk and one, arbitrary, or past the store.
func randomPageQuery(rng *rand.Rand, total int) Query {
	var q Query
	if rng.Intn(4) > 0 {
		a, b := rng.Intn(21), rng.Intn(21)
		q.From, q.To = t0.Add(time.Duration(min(a, b))*time.Minute), t0.Add(time.Duration(max(a, b)+1)*time.Minute)
	}
	switch rng.Intn(6) {
	case 0:
		q.Themes = []string{"weather"}
	case 1:
		q.Themes = []string{"social"}
	case 2:
		q.Sources = []string{fmt.Sprintf("st-%d", rng.Intn(6)), "twitter-1"}[:1+rng.Intn(2)]
	case 3:
		q.Region = &geo.Rect{Min: geo.Point{Lat: 34.6, Lon: 135.4}, Max: geo.Point{Lat: 34.75, Lon: 135.55}}
	case 4:
		q.Cond = fmt.Sprintf("temperature > %d", rng.Intn(40))
	}
	limits := []int{0, 1, persist.IndexEvery, persist.IndexEvery + 1, 1 + rng.Intn(total), total + 100}
	q.Limit = limits[rng.Intn(len(limits))]
	return q
}

func TestRetention(t *testing.T) {
	w := New()
	w.SetRetention(100)
	for i := 0; i < 400; i++ {
		if err := w.Append(wTuple(time.Duration(i)*time.Minute, 20, "s", 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() > 101 {
		t.Errorf("retention violated: %d events", w.Len())
	}
	if w.Evicted() == 0 {
		t.Error("no evictions recorded")
	}
	// Survivors are the newest events and the indexes still work.
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Tuple.Time.Before(evs[i-1].Tuple.Time) {
			t.Fatal("time order broken after compaction")
		}
	}
	oldest := evs[0].Tuple.Time
	if oldest.Before(t0.Add(250 * time.Minute)) {
		t.Errorf("old events survived retention: oldest = %v", oldest)
	}
	// Theme/source indexes rebuilt consistently.
	n, _, err := w.Count(context.Background(), Query{Themes: []string{"weather"}})
	if err != nil || n != w.Len() {
		t.Errorf("theme index inconsistent after compaction: %d vs %d", n, w.Len())
	}
	n, _, err = w.Count(context.Background(), Query{Sources: []string{"s"}})
	if err != nil || n != w.Len() {
		t.Errorf("source index inconsistent after compaction: %d vs %d", n, w.Len())
	}
}

func TestRetentionAppliedOnSet(t *testing.T) {
	w := New()
	for i := 0; i < 50; i++ {
		if err := w.Append(wTuple(time.Duration(i)*time.Minute, 20, "s", 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	w.SetRetention(10)
	if w.Len() > 10 {
		t.Errorf("SetRetention must compact immediately: %d", w.Len())
	}
}
