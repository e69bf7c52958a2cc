package warehouse

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/ops"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

func aggRows(t *testing.T, w *Warehouse, q AggQuery) []AggRow {
	t.Helper()
	rows, _, err := w.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestAggregateCount(t *testing.T) {
	w := loaded(t)
	rows := aggRows(t, w, AggQuery{Func: ops.AggCount})
	if len(rows) != 1 || rows[0].Count != 5 || rows[0].Value != 5 {
		t.Fatalf("bare count = %+v, want one row of 5", rows)
	}
	// COUNT(field) counts only events carrying the field non-null: the
	// social tuple has no temperature.
	rows = aggRows(t, w, AggQuery{Func: ops.AggCount, Field: "temperature"})
	if len(rows) != 1 || rows[0].Count != 4 {
		t.Fatalf("count(temperature) = %+v, want 4", rows)
	}
}

func TestAggregateFuncs(t *testing.T) {
	w := loaded(t) // temperatures 20, 26, 30, 15
	for _, tc := range []struct {
		fn   ops.AggFunc
		want float64
	}{
		{ops.AggSum, 91},
		{ops.AggAvg, 91.0 / 4},
		{ops.AggMin, 15},
		{ops.AggMax, 30},
	} {
		rows := aggRows(t, w, AggQuery{Func: tc.fn, Field: "temperature"})
		if len(rows) != 1 || rows[0].Value != tc.want || rows[0].Count != 4 {
			t.Fatalf("%s = %+v, want value %v over 4 events", tc.fn, rows, tc.want)
		}
	}
}

func TestAggregateGroupBySource(t *testing.T) {
	w := loaded(t)
	rows := aggRows(t, w, AggQuery{Func: ops.AggAvg, Field: "temperature", GroupBy: []string{"source"}})
	want := []AggRow{
		{Source: "kyoto", Count: 1, Value: 15},
		{Source: "namba", Count: 1, Value: 30},
		{Source: "umeda", Count: 2, Value: 23},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v, want %d groups", rows, len(want))
	}
	for i, r := range rows {
		if r.Source != want[i].Source || r.Count != want[i].Count || r.Value != want[i].Value {
			t.Fatalf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestAggregateGroupByTheme(t *testing.T) {
	w := loaded(t)
	rows := aggRows(t, w, AggQuery{Func: ops.AggCount, GroupBy: []string{"theme"}})
	if len(rows) != 2 || rows[0].Theme != "social" || rows[0].Count != 1 ||
		rows[1].Theme != "weather" || rows[1].Count != 4 {
		t.Fatalf("theme groups = %+v, want social:1 weather:4", rows)
	}
}

func TestAggregateBucketed(t *testing.T) {
	w := loaded(t)
	rows := aggRows(t, w, AggQuery{Func: ops.AggCount, Bucket: time.Hour})
	// t0: umeda; t0+1h: umeda and the 90-minute tweet; t0+2h: namba;
	// t0+3h: kyoto.
	wantCounts := map[time.Time]int64{
		t0: 1, t0.Add(time.Hour): 2, t0.Add(2 * time.Hour): 1, t0.Add(3 * time.Hour): 1,
	}
	if len(rows) != len(wantCounts) {
		t.Fatalf("buckets = %+v, want %d", rows, len(wantCounts))
	}
	for i, r := range rows {
		if i > 0 && !rows[i-1].Bucket.Before(r.Bucket) {
			t.Fatal("buckets out of order")
		}
		if wantCounts[r.Bucket] != r.Count {
			t.Fatalf("bucket %v count = %d, want %d", r.Bucket, r.Count, wantCounts[r.Bucket])
		}
	}
}

func TestAggregateFilters(t *testing.T) {
	w := loaded(t)
	rows := aggRows(t, w, AggQuery{
		Query: Query{Sources: []string{"umeda"}},
		Func:  ops.AggSum, Field: "temperature",
	})
	if len(rows) != 1 || rows[0].Value != 46 {
		t.Fatalf("sum over umeda = %+v, want 46", rows)
	}
	rows = aggRows(t, w, AggQuery{
		Query: Query{Themes: []string{"social"}},
		Func:  ops.AggCount,
	})
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("count over social = %+v, want 1", rows)
	}
	rows = aggRows(t, w, AggQuery{
		Query: Query{Cond: "temperature > 19"},
		Func:  ops.AggMax, Field: "temperature",
	})
	if len(rows) != 1 || rows[0].Value != 30 || rows[0].Count != 3 {
		t.Fatalf("max over cond = %+v, want 30 over 3", rows)
	}
	rows = aggRows(t, w, AggQuery{
		Query: Query{From: t0.Add(time.Hour), To: t0.Add(3 * time.Hour)},
		Func:  ops.AggCount,
	})
	if len(rows) != 1 || rows[0].Count != 3 {
		t.Fatalf("windowed count = %+v, want 3", rows)
	}
}

func TestAggregateValidation(t *testing.T) {
	w := loaded(t)
	for name, q := range map[string]AggQuery{
		"unknown func":  {Func: "MEDIAN"},
		"missing field": {Func: ops.AggAvg},
		"bad group":     {Func: ops.AggCount, GroupBy: []string{"region"}},
		"neg bucket":    {Func: ops.AggCount, Bucket: -time.Hour},
	} {
		if _, _, err := w.Aggregate(context.Background(), q); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// Lower-case function names parse (the HTTP layer passes them through).
	if _, _, err := w.Aggregate(context.Background(), AggQuery{Func: "count"}); err != nil {
		t.Errorf("lower-case func: %v", err)
	}
}

func TestAggregateMaxGroups(t *testing.T) {
	w := loaded(t)
	_, _, err := w.Aggregate(context.Background(), AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}, MaxGroups: 2})
	if err == nil {
		t.Fatal("want group-cardinality error")
	}
}

// aggColdPair loads the same events into a spill-everything durable
// warehouse and an in-memory twin.
func aggColdPair(t *testing.T, n int) (cold, hot *Warehouse) {
	t.Helper()
	cold, err := Open(Config{
		Shards: 2, SegmentEvents: 64, SegmentSpan: time.Hour,
		DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cold.Close() })
	hot = NewWithConfig(Config{Shards: 2, SegmentEvents: 64, SegmentSpan: time.Hour})
	for i := 0; i < n; i++ {
		tup := wTuple(time.Duration(i)*time.Minute, float64(10+i%25),
			fmt.Sprintf("src-%d", i%4), 34.4+float64(i%10)*0.01, 135.2+float64(i%10)*0.01)
		if err := cold.Append(tup); err != nil {
			t.Fatal(err)
		}
		if err := hot.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	cold.DrainSpills()
	if cold.Stats().SegmentsCold == 0 {
		t.Fatal("nothing spilled")
	}
	return cold, hot
}

// TestCancelledQueryReadsNothing: a query whose context is already
// cancelled returns context.Canceled before it opens a single cold file.
func TestCancelledQueryReadsNothing(t *testing.T) {
	cold, _ := aggColdPair(t, 600)
	if n := cold.Stats().SegmentsCold; n < 2 {
		t.Fatalf("%d cold files, want >= 2", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Cond: "temperature > 0"} // no shortcut answers this: every file would be read
	check := func(name string, qs QueryStats, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if qs.ColdCacheMisses != 0 || qs.ColdCacheHits != 0 || qs.SegmentsScanned != 0 {
			t.Errorf("%s: scanned after cancellation: %+v", name, qs)
		}
	}
	evs, qs, err := cold.Select(ctx, q)
	check("Select", qs, err)
	if evs != nil {
		t.Errorf("Select returned %d events with its error", len(evs))
	}
	_, qs, err = cold.Count(ctx, q)
	check("Count", qs, err)
	_, qs, err = cold.Aggregate(ctx, AggQuery{Query: q, Func: ops.AggAvg, Field: "temperature"})
	check("Aggregate", qs, err)
}

func diffAggRows(got, want []AggRow) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Bucket.Equal(w.Bucket) || g.Source != w.Source || g.Theme != w.Theme ||
			g.Count != w.Count || g.Value != w.Value {
			return fmt.Sprintf("row %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// TestAggregateColdHeaderFastPath: a fully-covered COUNT over spilled
// history must be answered from cold-segment headers alone — zero chunks
// read — and be identical to the in-memory answer and to the forced
// slow path (an all-covering Region disables the header path without
// changing the result set).
func TestAggregateColdHeaderFastPath(t *testing.T) {
	cold, hot := aggColdPair(t, 1000)
	for name, q := range map[string]AggQuery{
		"plain":     {Func: ops.AggCount},
		"by source": {Func: ops.AggCount, GroupBy: []string{"source"}},
		"by theme":  {Func: ops.AggCount, GroupBy: []string{"theme"}},
		"one theme": {Query: Query{Themes: []string{"weather"}}, Func: ops.AggCount},
		"source filter": {Query: Query{Sources: []string{"src-1", "src-2"}},
			Func: ops.AggCount, GroupBy: []string{"source"}},
		"bucketed": {Func: ops.AggCount, Bucket: 24 * 365 * time.Hour},
	} {
		rows, qs, err := cold.Aggregate(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if qs.ColdHeaderOnly == 0 {
			t.Errorf("%s: no cold segment answered from headers (%+v)", name, qs)
		}
		if qs.ColdCacheHits+qs.ColdCacheMisses != 0 {
			t.Errorf("%s: fast path read %d chunks", name, qs.ColdCacheHits+qs.ColdCacheMisses)
		}
		wantRows := aggRows(t, hot, q)
		if diff := diffAggRows(rows, wantRows); diff != "" {
			t.Errorf("%s vs in-memory: %s", name, diff)
		}
		// Force full materialization with a Region covering everything;
		// the rows must be byte-identical to the header-only answer.
		slow := q
		rect := geo.NewRect(geo.Point{Lat: -90, Lon: -180}, geo.Point{Lat: 90, Lon: 180})
		slow.Region = &rect
		slowRows, sqs, err := cold.Aggregate(context.Background(), slow)
		if err != nil {
			t.Fatalf("%s slow: %v", name, err)
		}
		if sqs.ColdHeaderOnly != 0 {
			t.Errorf("%s: region query still took the header path", name)
		}
		if diff := diffAggRows(rows, slowRows); diff != "" {
			t.Errorf("%s fast vs slow: %s", name, diff)
		}
	}
}

// TestAggregateColdFallbacks: queries the header cannot answer — numeric
// aggregates, sub-file windows and buckets, source×theme combinations —
// read the file and still agree with the in-memory twin.
func TestAggregateColdFallbacks(t *testing.T) {
	cold, hot := aggColdPair(t, 1000)
	for name, q := range map[string]AggQuery{
		"avg":          {Func: ops.AggAvg, Field: "temperature", GroupBy: []string{"source"}},
		"sum bucketed": {Func: ops.AggSum, Field: "temperature", Bucket: time.Hour},
		"fine bucket":  {Func: ops.AggCount, Bucket: 10 * time.Minute},
		"window": {Query: Query{From: t0.Add(2 * time.Hour), To: t0.Add(5 * time.Hour)},
			Func: ops.AggMin, Field: "temperature"},
		"source and theme": {Query: Query{Themes: []string{"weather"}},
			Func: ops.AggCount, GroupBy: []string{"source"}},
		"two themes": {Query: Query{Themes: []string{"weather", "social"}},
			Func: ops.AggCount},
	} {
		rows, _, err := cold.Aggregate(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := diffAggRows(rows, aggRows(t, hot, q)); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// TestAggregateColdAfterRetention: logical trims of the boundary cold file
// keep the header stats live-exact, so the fast path stays correct after
// retention.
func TestAggregateColdAfterRetention(t *testing.T) {
	cold, _ := aggColdPair(t, 1000)
	cold.SetRetention(400)
	want, _, err := cold.Aggregate(context.Background(), AggQuery{
		Query: Query{Region: allRegion()}, // force the slow path
		Func:  ops.AggCount, GroupBy: []string{"source"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, qs, err := cold.Aggregate(context.Background(), AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}})
	if err != nil {
		t.Fatal(err)
	}
	if qs.ColdHeaderOnly == 0 {
		t.Fatalf("no header-only segments after retention (%+v)", qs)
	}
	if diff := diffAggRows(got, want); diff != "" {
		t.Fatal(diff)
	}
	var total int64
	for _, r := range got {
		total += r.Count
	}
	if int(total) != cold.Len() {
		t.Fatalf("grouped counts sum to %d, Len = %d", total, cold.Len())
	}
}

func allRegion() *geo.Rect {
	rect := geo.NewRect(geo.Point{Lat: -90, Lon: -180}, geo.Point{Lat: 90, Lon: 180})
	return &rect
}

// TestAggregateHeterogeneousSchemas: numeric aggregates skip events whose
// schema lacks the field (or holds it non-numerically) without error.
func TestAggregateHeterogeneousSchemas(t *testing.T) {
	w := New()
	if err := w.Append(wTuple(0, 21, "umeda", 34.7, 135.5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(sTuple(time.Minute, "no temperature here")); err != nil {
		t.Fatal(err)
	}
	// A schema where "temperature" is a string must not contribute either.
	oddSchema := stt.MustSchema([]stt.Field{
		stt.NewField("temperature", stt.KindString, ""),
	}, stt.GranMinute, stt.SpatPoint, "odd")
	odd := (&stt.Tuple{
		Schema: oddSchema,
		Values: []stt.Value{stt.String("hot")},
		Time:   t0.Add(2 * time.Minute), Lat: 34.7, Lon: 135.5,
		Theme: "odd", Source: "odd-1",
	}).AlignSTT()
	if err := w.Append(odd); err != nil {
		t.Fatal(err)
	}
	rows := aggRows(t, w, AggQuery{Func: ops.AggSum, Field: "temperature"})
	if len(rows) != 1 || rows[0].Count != 1 || rows[0].Value != 21 {
		t.Fatalf("sum = %+v, want 21 over 1 event", rows)
	}
	// COUNT(temperature) counts the string value too — present, non-null.
	rows = aggRows(t, w, AggQuery{Func: ops.AggCount, Field: "temperature"})
	if len(rows) != 1 || rows[0].Count != 2 {
		t.Fatalf("count(field) = %+v, want 2", rows)
	}
}

// aggChunkPair loads identical events into a durable warehouse whose cold
// files span several 256-event chunks (so the per-chunk stats path has
// chunks to answer) and an in-memory twin. Compaction is disabled to keep
// the file layout deterministic.
func aggChunkPair(t *testing.T, n int) (cold, hot *Warehouse) {
	t.Helper()
	cold, err := Open(Config{
		Shards: 1, SegmentEvents: 4 * persist.IndexEvery, SegmentSpan: 240 * time.Hour,
		DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
		CompactBelow: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cold.Close() })
	hot = NewWithConfig(Config{Shards: 1, SegmentEvents: 4 * persist.IndexEvery, SegmentSpan: 240 * time.Hour})
	for i := 0; i < n; i++ {
		tup := wTuple(time.Duration(i)*time.Minute, float64(10+i%25),
			fmt.Sprintf("src-%d", i%4), 34.4+float64(i%10)*0.01, 135.2+float64(i%10)*0.01)
		if err := cold.Append(tup); err != nil {
			t.Fatal(err)
		}
		if err := hot.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	cold.DrainSpills()
	if cold.Stats().SegmentsCold == 0 {
		t.Fatal("nothing spilled")
	}
	return cold, hot
}

// chunkStatsQueries are aggregates the file header cannot answer (numeric
// functions, partial windows) but whole chunks can.
func chunkStatsQueries() map[string]AggQuery {
	return map[string]AggQuery{
		"sum":         {Func: ops.AggSum, Field: "temperature"},
		"avg":         {Func: ops.AggAvg, Field: "temperature"},
		"min":         {Func: ops.AggMin, Field: "temperature"},
		"count all":   {Func: ops.AggCount, Query: Query{From: t0.Add(3 * time.Hour), To: t0.Add(70 * time.Hour)}},
		"sum window":  {Func: ops.AggSum, Field: "temperature", Query: Query{From: t0.Add(3 * time.Hour), To: t0.Add(70 * time.Hour)}},
		"wide bucket": {Func: ops.AggSum, Field: "temperature", Bucket: 24 * 365 * time.Hour},
	}
}

// chunkFallbackQueries are aggregates whole chunks cannot answer — a source
// filter under a field aggregate needs per-event matching, group-by-source
// needs single-source chunks — so they decode (or use the file header) and
// must still be exact.
func chunkFallbackQueries() map[string]AggQuery {
	return map[string]AggQuery{
		"sum by source": {Func: ops.AggSum, Field: "temperature", GroupBy: []string{"source"}},
		"sum one source": {Func: ops.AggSum, Field: "temperature",
			Query: Query{Sources: []string{"src-1"}}},
		"count one source": {Func: ops.AggCount, Query: Query{Sources: []string{"src-2"}}},
	}
}

// TestAggregateChunkStatsFastPath: cold files answer chunks of
// partially-covered aggregates from sparse-index stats — identically to the
// in-memory twin and to the forced decode path.
func TestAggregateChunkStatsFastPath(t *testing.T) {
	cold, hot := aggChunkPair(t, 13*persist.IndexEvery)
	for name, q := range chunkStatsQueries() {
		rows, qs, err := cold.Aggregate(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if qs.ColdChunkStats == 0 {
			t.Errorf("%s: no chunk answered from stats (%+v)", name, qs)
		}
		if diff := diffAggRows(rows, aggRows(t, hot, q)); diff != "" {
			t.Errorf("%s vs in-memory: %s", name, diff)
		}
		// A Region covering everything forces full decode without changing
		// the result set; rows must be byte-identical.
		slow := q
		slow.Region = allRegion()
		slowRows, sqs, err := cold.Aggregate(context.Background(), slow)
		if err != nil {
			t.Fatalf("%s slow: %v", name, err)
		}
		if sqs.ColdChunkStats != 0 {
			t.Errorf("%s: region query still took the chunk-stats path", name)
		}
		if diff := diffAggRows(rows, slowRows); diff != "" {
			t.Errorf("%s fast vs slow: %s", name, diff)
		}
	}
	for name, q := range chunkFallbackQueries() {
		rows, _, err := cold.Aggregate(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if diff := diffAggRows(rows, aggRows(t, hot, q)); diff != "" {
			t.Errorf("%s vs in-memory: %s", name, diff)
		}
	}
	if cold.Stats().ColdChunkStatsHits == 0 {
		t.Error("warehouse counter did not accumulate chunk-stats hits")
	}
}

// TestAggregateChunkStatsAfterRetention: a logically-trimmed cold file only
// answers wholly-live chunks from stats; the straddling chunk decodes. The
// results stay exact.
func TestAggregateChunkStatsAfterRetention(t *testing.T) {
	cold, _ := aggChunkPair(t, 13*persist.IndexEvery)
	cold.SetRetention(8 * persist.IndexEvery)
	q := AggQuery{Func: ops.AggSum, Field: "temperature"}
	slow := q
	slow.Region = allRegion()
	want, _, err := cold.Aggregate(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	got, qs, err := cold.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if qs.ColdChunkStats == 0 {
		t.Fatalf("no chunk-stats answers after retention (%+v)", qs)
	}
	if diff := diffAggRows(got, want); diff != "" {
		t.Fatal(diff)
	}
}
