package warehouse

import (
	"context"
	"fmt"
	"testing"
	"time"

	"streamloader/internal/geo"
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

// TestCandidateSetProvesAbsence: an index that holds no entry for what the
// query asks proves the segment has no match — the candidate set is empty,
// not the whole time index "no applicable index" falls back to.
func TestCandidateSetProvesAbsence(t *testing.T) {
	g := newSegment()
	for i := 0; i < 100; i++ {
		g.append(Event{Seq: uint64(i), Tuple: wTuple(time.Duration(i)*time.Second, 20, "seg-src", 34.7, 135.5)})
	}
	for name, q := range map[string]Query{
		"absent source":           {Sources: []string{"nobody"}},
		"absent theme":            {Themes: []string{"social"}},
		"absent source in window": {Sources: []string{"nobody"}, From: t0.Add(10 * time.Second), To: t0.Add(15 * time.Second)},
	} {
		if ords, _ := g.candidateSet(q); len(ords) != 0 {
			t.Errorf("%s: %d candidates, want 0", name, len(ords))
		}
	}
	if ords, ordered := g.candidateSet(Query{}); len(ords) != 100 || !ordered {
		t.Errorf("unconstrained: %d candidates (time-ordered %v), want 100 time-ordered", len(ords), ordered)
	}
}
