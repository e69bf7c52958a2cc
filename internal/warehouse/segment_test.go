package warehouse

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/ops"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// loadOrdered appends n single-source events at 1-minute steps.
func loadOrdered(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Append(wTuple(time.Duration(i)*time.Minute, 20, "seg-src", 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentRotationByCount(t *testing.T) {
	w := NewWithConfig(Config{Shards: 1, SegmentEvents: 100, SegmentSpan: 24 * 365 * time.Hour})
	loadOrdered(t, w, 1000)
	if st := w.Stats(); st.Segments != 10 {
		t.Errorf("Segments = %d, want 10", st.Segments)
	}
}

func TestSegmentRotationBySpan(t *testing.T) {
	w := NewWithConfig(Config{Shards: 1, SegmentEvents: 1 << 20, SegmentSpan: time.Hour})
	loadOrdered(t, w, 600) // 10 hours of minutes -> one rotation per hour of span
	st := w.Stats()
	if st.Segments < 9 || st.Segments > 11 {
		t.Errorf("Segments = %d, want ~10", st.Segments)
	}
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 600 {
		t.Errorf("select all = %d, want 600", len(evs))
	}
}

func TestStragglersLandInSideSegment(t *testing.T) {
	w := NewWithConfig(Config{Shards: 1, SegmentEvents: 10, SegmentSpan: 24 * time.Hour})
	// Seal a couple of in-order segments...
	loadOrdered(t, w, 25)
	base := w.Stats().Segments
	// ...then a straggler far below the sealed history: it must open a side
	// segment, not stretch a sealed envelope.
	if err := w.Append(wTuple(-3*time.Hour, 5, "late-src", 34.7, 135.5)); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Segments; got != base+1 {
		t.Errorf("Segments = %d after straggler, want %d", got, base+1)
	}
	// The straggler is queryable and sorts first.
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 26 || evs[0].Tuple.Source != "late-src" {
		t.Fatalf("straggler lost or misordered: %d events, first source %q",
			len(evs), evs[0].Tuple.Source)
	}
	// A query over recent history must not scan the straggler's segment.
	_, qs, err := w.Select(context.Background(), Query{From: t0, To: t0.Add(25 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if qs.SegmentsPruned < 1 {
		t.Errorf("side segment not pruned: %+v", qs)
	}
}

// TestNarrowSelectPrunesSegments locks in the acceptance criterion: on a
// wide-history warehouse, a small-window select prunes >= 90% of segments.
func TestNarrowSelectPrunesSegments(t *testing.T) {
	w := NewWithConfig(Config{Shards: 1, SegmentEvents: 100, SegmentSpan: 24 * 365 * time.Hour})
	loadOrdered(t, w, 10_000) // ~100 segments over ~7 days
	evs, qs, err := w.Select(context.Background(), Query{
		From: t0.Add(5000 * time.Minute),
		To:   t0.Add(5100 * time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 100 {
		t.Errorf("narrow select = %d events, want 100", len(evs))
	}
	total := qs.SegmentsScanned + qs.SegmentsPruned
	if total < 95 {
		t.Fatalf("expected ~100 segments, saw %d", total)
	}
	if ratio := float64(qs.SegmentsPruned) / float64(total); ratio < 0.9 {
		t.Errorf("pruned %d of %d segments (%.0f%%), want >= 90%%",
			qs.SegmentsPruned, total, ratio*100)
	}
}

// TestRetentionDropsWholeSegments locks in the other acceptance criterion:
// evicting the oldest events must ride the whole-segment cold path, not
// per-shard index rebuilds — at most the boundary segments get trimmed.
func TestRetentionDropsWholeSegments(t *testing.T) {
	w := NewWithConfig(Config{Shards: 1, SegmentEvents: 100, SegmentSpan: 24 * 365 * time.Hour})
	loadOrdered(t, w, 1000)
	w.SetRetention(400) // drop 700 oldest (keep 3/4 of 400)
	if drops := w.segDrops.Load(); drops < 6 {
		t.Errorf("whole-segment drops = %d, want >= 6", drops)
	}
	if trims := w.segTrims.Load(); trims > 1 {
		t.Errorf("boundary trims = %d, want <= 1", trims)
	}
	if w.Len() != 300 {
		t.Errorf("Len = %d, want 300", w.Len())
	}
	// Exactly the globally-oldest were dropped: survivors start at minute 700.
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if want := t0.Add(700 * time.Minute); !evs[0].Tuple.Time.Equal(want) {
		t.Errorf("oldest survivor at %v, want %v", evs[0].Tuple.Time, want)
	}
	if st := w.Stats(); st.SegmentsDropped != w.segDrops.Load() {
		t.Errorf("Stats.SegmentsDropped = %d, counter = %d", st.SegmentsDropped, w.segDrops.Load())
	}
}

// TestCountFastPath cross-checks the no-materialization Count against
// Select across constraint shapes, on a segment-boundary-heavy store.
func TestCountFastPath(t *testing.T) {
	w := NewWithConfig(Config{Shards: 4, SegmentEvents: 32, SegmentSpan: 2 * time.Hour})
	var batch []*stt.Tuple
	for i := 0; i < 800; i++ {
		batch = append(batch, wTuple(time.Duration(i)*time.Minute, float64(i%35),
			fmt.Sprintf("cnt-%d", i%5), 34.4+float64(i%40)*0.01, 135.2+float64(i%40)*0.01))
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	region := regionAround(34.5, 135.3)
	for _, q := range []Query{
		{},
		{From: t0.Add(2 * time.Hour), To: t0.Add(5 * time.Hour)},
		{From: t0.Add(30 * time.Minute)},
		{To: t0.Add(90 * time.Minute)},
		{Themes: []string{"weather"}},
		{Sources: []string{"cnt-1", "cnt-3"}, From: t0.Add(time.Hour), To: t0.Add(6 * time.Hour)},
		{Region: &region},
		{Cond: "temperature > 20"},                   // counted event by event
		{From: t0.Add(time.Hour), Limit: 7},          // capped at the limit
		{From: t0.Add(800 * time.Minute), Limit: 10}, // empty window
	} {
		evs, _, err := w.Select(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := w.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(evs) {
			t.Errorf("query %s: Count = %d, Select = %d", queryString(q), n, len(evs))
		}
	}
	// Sanity: the time-only count really covers everything.
	if n, _, _ := w.Count(context.Background(), Query{}); n != 800 {
		t.Errorf("Count{} = %d, want 800", n)
	}
}

// TestSegmentTrimKeepsIndexes: after a boundary trim, every index of the
// trimmed segment still answers queries correctly.
func TestSegmentTrimKeepsIndexes(t *testing.T) {
	w := NewWithConfig(Config{Shards: 1, SegmentEvents: 1 << 20, SegmentSpan: 24 * 365 * time.Hour})
	for i := 0; i < 100; i++ {
		if err := w.Append(wTuple(time.Duration(i)*time.Minute, float64(i),
			fmt.Sprintf("trim-%d", i%4), 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	w.SetRetention(80) // single segment: must trim, not drop
	if w.segTrims.Load() == 0 {
		t.Fatal("expected a boundary trim")
	}
	if w.Len() != 60 {
		t.Fatalf("Len = %d, want 60", w.Len())
	}
	// Theme, source and time indexes all consistent post-trim.
	n, _, err := w.Count(context.Background(), Query{Sources: []string{"trim-1"}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 { // survivors are minutes 40..99; 15 of them are i%4==1
		t.Errorf("source count after trim = %d, want 15", n)
	}
	evs, _, err := w.Select(context.Background(), Query{Themes: []string{"weather"}, Cond: "temperature > 89"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 10 {
		t.Errorf("cond select after trim = %d, want 10", len(evs))
	}
	if st := w.Stats(); st.Sources != 4 || st.Events != 60 {
		t.Errorf("Stats after trim = %+v", st)
	}
}

// regionAround builds a small query rectangle centered near (lat, lon).
func regionAround(lat, lon float64) geo.Rect {
	return geo.NewRect(geo.Point{Lat: lat - 0.05, Lon: lon - 0.05},
		geo.Point{Lat: lat + 0.05, Lon: lon + 0.05})
}

// TestCountsProveAbsence: a hot segment or a cold file whose source and
// theme counts hold no entry for what the query asks is pruned unscanned,
// by Count's scan and Select's merge alike; an unconstrained query prunes
// nothing.
func TestCountsProveAbsence(t *testing.T) {
	w, err := Open(Config{
		Shards: 1, SegmentEvents: 100, SegmentSpan: 240 * time.Hour,
		DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 200; i++ {
		if err := w.Append(wTuple(time.Duration(i)*time.Minute, 20, "seg-src", 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	w.DrainSpills()
	if st := w.Stats(); st.Segments != 2 || st.SegmentsCold != 1 {
		t.Fatalf("want one cold file and one hot segment, got %d segments, %d cold", st.Segments, st.SegmentsCold)
	}
	ctx := context.Background()
	check := func(name string, q Query, pruned, matches int) {
		t.Helper()
		n, qs, err := w.Count(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		evs, sqs, err := w.Select(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if n != matches || len(evs) != matches {
			t.Errorf("%s: Count %d, Select %d, want %d", name, n, len(evs), matches)
		}
		if qs.SegmentsPruned != pruned || sqs.SegmentsPruned != pruned {
			t.Errorf("%s: Count pruned %d, Select pruned %d, want %d", name, qs.SegmentsPruned, sqs.SegmentsPruned, pruned)
		}
	}
	window := Query{From: t0.Add(90 * time.Minute), To: t0.Add(110 * time.Minute)} // spans both
	for name, q := range map[string]Query{
		"absent source":           {Sources: []string{"nobody"}},
		"absent theme":            {Themes: []string{"social"}},
		"absent source in window": {Sources: []string{"nobody"}, From: window.From, To: window.To},
	} {
		check(name, q, 2, 0)
	}
	check("unconstrained", Query{}, 0, 200)
	check("window", window, 0, 20)
}

// TestEmptyNameFiltersAgree: no count holds the empty source or theme, so a
// filter naming one proves nothing and must match exactly what matchEvent
// matches, in hot segments, their chunk stats and cold files alike.
func TestEmptyNameFiltersAgree(t *testing.T) {
	const n = 400
	mem := NewWithConfig(Config{Shards: 1, SegmentEvents: 50, SegmentSpan: 240 * time.Hour})
	dur, err := Open(Config{
		Shards: 1, SegmentEvents: 50, SegmentSpan: 240 * time.Hour,
		DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	var all []Event
	for i := 0; i < n; i++ {
		src, theme := "", "weather"
		if i%2 == 1 {
			src = fmt.Sprintf("src-%d", i%4)
		}
		if i%3 == 0 {
			theme = ""
		}
		tup := wTuple(time.Duration(i)*time.Minute, float64(i%25), src, 34.7, 135.5)
		tup.Source, tup.Theme = src, theme
		for _, w := range []*Warehouse{mem, dur} {
			if err := w.Append(tup); err != nil {
				t.Fatal(err)
			}
		}
		all = append(all, Event{Tuple: tup})
	}
	dur.DrainSpills()
	if dur.Stats().SegmentsCold == 0 {
		t.Fatal("nothing spilled")
	}
	ctx := context.Background()
	for name, q := range map[string]Query{
		"empty source":            {Sources: []string{""}},
		"empty theme":             {Themes: []string{""}},
		"empty or named source":   {Sources: []string{"", "src-1"}},
		"empty or named theme":    {Themes: []string{"", "weather"}},
		"empty source in window":  {Sources: []string{""}, From: t0.Add(100 * time.Minute), To: t0.Add(390 * time.Minute)},
		"empty theme and source":  {Themes: []string{""}, Sources: []string{""}},
		"named source, no themes": {Sources: []string{"src-3"}, Themes: []string{"", "social"}},
	} {
		want, wantSum := 0, 0.0
		for _, ev := range all {
			if ok, _ := matchEvent(ev, &q, nil); ok {
				want++
				wantSum += ev.Tuple.Values[0].AsFloat()
			}
		}
		for store, w := range map[string]*Warehouse{"in-memory": mem, "durable": dur} {
			evs, _, err := w.Select(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			cnt, _, err := w.Count(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			limited, _, err := w.Count(ctx, Query{Sources: q.Sources, Themes: q.Themes, From: q.From, To: q.To, Limit: n})
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != want || cnt != want || limited != want {
				t.Errorf("%s, %s: Select %d, Count %d, limited Count %d, want %d", name, store, len(evs), cnt, limited, want)
			}
			for _, aq := range []AggQuery{{Query: q, Func: ops.AggCount}, {Query: q, Func: ops.AggSum, Field: "temperature"}} {
				rows, _, err := w.Aggregate(ctx, aq)
				if err != nil {
					t.Fatal(err)
				}
				var got int64
				var sum float64
				for _, r := range rows {
					got += r.Count
					sum += r.Value
				}
				if got != int64(want) || (aq.Func == ops.AggSum && sum != wantSum) {
					t.Errorf("%s, %s: %s aggregate counts %d (value %g), want %d (%g)", name, store, aq.Func, got, sum, want, wantSum)
				}
			}
		}
	}
}

// TestLiveHeapPerHotEvent gates the live heap a hot event costs: the bench's
// fleet at 50 Hz for 4 minutes (appendBenchShaped) into a 16-shard
// in-memory store, measured after a collection on either side. The bound
// sits 2 % over the 210.3 B measured with segments that hold a time index
// and two count maps; a change that shrinks the hot form lowers it.
func TestLiveHeapPerHotEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping inflates the heap; the size is exact only without it")
	}
	const maxBytes = 215
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := NewWithConfig(Config{Shards: 16})
	appendBenchShaped(t, w, 50, 4)
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := w.Len()
	runtime.KeepAlive(w)
	perEvent := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	t.Logf("%d events, %.1f live heap bytes per event", n, perEvent)
	if perEvent > maxBytes {
		t.Fatalf("%.1f live heap bytes per hot event, gate %d", perEvent, maxBytes)
	}
}
