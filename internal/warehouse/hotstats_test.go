package warehouse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamloader/internal/ops"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// TestAppendRefusesArityMismatch: Append and AppendBatch refuse a tuple
// whose value count differs from its schema's field count, before anything
// is stored or logged. Reads index values by field position, so a stored
// short tuple made an aggregate or a Cond on the field it lacked index past
// its values and panic — on a shard goroutine, which kills the process.
func TestAppendRefusesArityMismatch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w, err := Open(Config{Shards: 4, DataDir: dir, Sync: persist.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	good := wTuple(0, 20, "s1", 34.7, 135.5)
	short := &stt.Tuple{Schema: weather, Values: []stt.Value{stt.Float(21)}, Time: t0, Source: "s2", Theme: "weather"}
	long := &stt.Tuple{Schema: weather, Values: []stt.Value{stt.Float(22), stt.String("s3"), stt.Int(1)}, Time: t0, Source: "s3", Theme: "weather"}
	for _, bad := range []*stt.Tuple{short, long} {
		if err := w.Append(bad); err == nil {
			t.Errorf("Append took a %d-value tuple of a %d-field schema", len(bad.Values), weather.NumFields())
		}
		if err := w.AppendBatch([]*stt.Tuple{good, bad}); err == nil {
			t.Errorf("AppendBatch took a %d-value tuple of a %d-field schema", len(bad.Values), weather.NumFields())
		}
	}
	if n := w.Stats().Events; n != 0 {
		t.Fatalf("refused appends stored %d events", n)
	}
	if err := w.Append(good); err != nil {
		t.Fatal(err)
	}
	rows, _, err := w.Aggregate(ctx, AggQuery{Func: ops.AggCount, Field: "station"})
	if err != nil || len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("COUNT(station) = %+v, %v; want one row of 1", rows, err)
	}
	evs, _, err := w.Select(ctx, Query{Cond: `station == "s1"`})
	if err != nil || len(evs) != 1 {
		t.Fatalf("select on station: %d events, %v; want 1", len(evs), err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing refused reached the log either.
	w, err = Open(Config{Shards: 4, DataDir: dir, Sync: persist.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if n := w.Stats().Events; n != 1 {
		t.Fatalf("reopened store holds %d events, want 1", n)
	}
}

// Schemas of the aggregate property test: the aggregated field at either
// position, and a schema without it.
var (
	propFirst = stt.MustSchema([]stt.Field{
		stt.NewField("temperature", stt.KindFloat, "celsius"),
		stt.NewField("station", stt.KindString, ""),
	}, stt.GranSecond, stt.SpatPoint, "weather")
	propSecond = stt.MustSchema([]stt.Field{
		stt.NewField("station", stt.KindString, ""),
		stt.NewField("temperature", stt.KindFloat, "celsius"),
	}, stt.GranSecond, stt.SpatPoint, "weather")
	propNone = stt.MustSchema([]stt.Field{
		stt.NewField("level", stt.KindInt, "cm"),
	}, stt.GranSecond, stt.SpatPoint, "river")
)

// propSource is one producer of the property test's store.
type propSource struct {
	name   string
	schema *stt.Schema
	theme  string
	// nonFinite sources emit a rare NaN or ±Inf.
	nonFinite bool
	clock     time.Time
}

// propLoad is the property test's generator: several sources per shard,
// each with its own clock, in batches of random size, a few of them
// stragglers far behind the sealed history.
type propLoad struct {
	rng     *rand.Rand
	sources []*propSource
}

func newPropLoad(seed int64) *propLoad {
	l := &propLoad{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 8; i++ {
		src := &propSource{name: fmt.Sprintf("p%d", i), clock: t0, nonFinite: i%4 == 3}
		switch i % 3 {
		case 0:
			src.schema, src.theme = propFirst, "weather"
		case 1:
			src.schema, src.theme = propSecond, []string{"rain", ""}[i%2]
		default:
			src.schema, src.theme = propNone, "river"
		}
		l.sources = append(l.sources, src)
	}
	return l
}

// value draws a temperature: mostly quarter-degree floats (their sums are
// exact), some ints and nulls, and from a nonFinite source a rare NaN or
// ±Inf.
func (l *propLoad) value(src *propSource) stt.Value {
	r := l.rng.Intn(1000)
	switch {
	case src.nonFinite && r < 3:
		return stt.Float(math.NaN())
	case src.nonFinite && r < 5:
		return stt.Float(math.Inf(1))
	case src.nonFinite && r < 7:
		return stt.Float(math.Inf(-1))
	case r < 60:
		return stt.Null()
	case r < 120:
		return stt.Int(int64(l.rng.Intn(101) - 50))
	}
	return stt.Float(float64(l.rng.Intn(401)-200) / 4)
}

func (l *propLoad) tuple(src *propSource, at time.Time) *stt.Tuple {
	vals := make([]stt.Value, src.schema.NumFields())
	for i := range vals {
		switch f := src.schema.Field(i); f.Name {
		case "temperature":
			vals[i] = l.value(src)
		case "station":
			vals[i] = stt.String(src.name)
		default:
			vals[i] = stt.Int(int64(l.rng.Intn(300)))
		}
	}
	return &stt.Tuple{Schema: src.schema, Values: vals, Time: at, Lat: 34.7, Lon: 135.5, Theme: src.theme, Source: src.name}
}

// load appends about n events.
func (l *propLoad) load(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	for done := 0; done < n; {
		src := l.sources[l.rng.Intn(len(l.sources))]
		size := 1 + l.rng.Intn(300)
		straggle := l.rng.Intn(20) == 0
		batch := make([]*stt.Tuple, 0, size)
		for i := 0; i < size; i++ {
			src.clock = src.clock.Add(time.Duration(l.rng.Intn(4)) * time.Second)
			at := src.clock
			if straggle {
				at = at.Add(-time.Duration(10+l.rng.Intn(30)) * time.Minute)
			}
			batch = append(batch, l.tuple(src, at))
		}
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		done += size
	}
	w.DrainSpills()
}

// naiveGroup is the reference fold of one group, written apart from the
// partial package so the check shares no code with its subject.
type naiveGroup struct {
	count         int64
	sum, min, max float64
	// absSum sums the magnitudes, the scale of SUM's rounding error.
	absSum float64
}

type naiveKey struct {
	bucket        int64
	source, theme string
}

// naiveAggregate folds the events of a Select over the query's filter, one
// by one, with the aggregate's contribution and grouping rules.
func naiveAggregate(evs []Event, q AggQuery) map[naiveKey]*naiveGroup {
	out := map[naiveKey]*naiveGroup{}
	for _, ev := range evs {
		t := ev.Tuple
		var f float64
		if q.Field != "" {
			i := t.Schema.IndexOf(q.Field)
			if i < 0 {
				continue
			}
			v := t.Values[i]
			if q.Func == ops.AggCount {
				if v.IsNull() {
					continue
				}
			} else {
				if !v.Kind().Numeric() {
					continue
				}
				f = v.AsFloat()
			}
		}
		var bs time.Time
		if q.Bucket > 0 {
			bs = t.Time.Truncate(q.Bucket)
		}
		k := naiveKey{bucket: bs.UnixNano()}
		for _, d := range q.GroupBy {
			if d == "source" {
				k.source = t.Source
			} else {
				k.theme = t.Theme
			}
		}
		st := out[k]
		if st == nil {
			st = &naiveGroup{min: math.Inf(1), max: math.Inf(-1)}
			out[k] = st
		}
		st.count++
		st.sum += f
		st.absSum += math.Abs(f)
		st.min = math.Min(st.min, f)
		st.max = math.Max(st.max, f)
	}
	return out
}

// sameFloat reports got == want, both NaN, or — when tol is positive and
// want finite — |got - want| <= tol.
func sameFloat(got, want, tol float64) bool {
	switch {
	case math.IsNaN(want):
		return math.IsNaN(got)
	case math.IsInf(want, 0):
		return got == want
	}
	return got == want || math.Abs(got-want) <= tol
}

// checkAggregate compares one Aggregate against the naive fold of evs:
// counts, COUNT, MIN and MAX exactly, SUM and AVG within a tolerance scaled
// by the magnitudes summed.
func checkAggregate(t *testing.T, w *Warehouse, q AggQuery, evs []Event) QueryStats {
	t.Helper()
	rows, qs, err := w.Aggregate(context.Background(), q)
	if err != nil {
		t.Fatalf("%+v: %v", q, err)
	}
	want := naiveAggregate(evs, q)
	if len(rows) != len(want) {
		t.Fatalf("%s(%s) by %v bucket %v filter %v/%v [%v, %v): %d rows, want %d",
			q.Func, q.Field, q.GroupBy, q.Bucket, q.Sources, q.Themes, q.From, q.To, len(rows), len(want))
	}
	for _, r := range rows {
		g := want[naiveKey{r.Bucket.UnixNano(), r.Source, r.Theme}]
		if g == nil {
			t.Fatalf("%s(%s) by %v bucket %v: unexpected row %+v", q.Func, q.Field, q.GroupBy, q.Bucket, r)
		}
		var wantV, tol float64
		switch q.Func {
		case ops.AggCount:
			wantV = float64(g.count)
		case ops.AggSum:
			wantV, tol = g.sum, 1e-9*(1+g.absSum)
		case ops.AggAvg:
			wantV, tol = g.sum/float64(g.count), 1e-9*(1+g.absSum)/float64(g.count)
		case ops.AggMin:
			wantV = g.min
		case ops.AggMax:
			wantV = g.max
		}
		if r.Count != g.count || !sameFloat(r.Value, wantV, tol) {
			t.Fatalf("%s(%s) by %v bucket %v filter %v/%v [%v, %v): row %+v, want count %d value %v",
				q.Func, q.Field, q.GroupBy, q.Bucket, q.Sources, q.Themes, q.From, q.To, r, g.count, wantV)
		}
	}
	return qs
}

// TestQuickAggregateEqualsSelectFold: Aggregate — cold headers and chunks,
// sealed hot segments answered from their chunk index, the per-event fold
// and its memo — equals a naive fold over Select of the same filter, for
// every function, grouping, bucket and filter shape, over a store of
// several sources per shard, the aggregated field at two schema positions
// and absent in a third schema, batches of random size, stragglers in
// out-of-order segments and NaN/±Inf values; checked again after more
// appends land in the active segments, after a retention cut trims
// boundary segments, and after appends on top of the cut.
func TestQuickAggregateEqualsSelectFold(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{Shards: 2, SegmentEvents: 700, SegmentSpan: 20 * time.Minute}
			if durable {
				cfg.DataDir, cfg.HotSegments, cfg.Sync = t.TempDir(), 2, persist.SyncNever
			}
			w, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			l := newPropLoad(7)
			hot := 0
			check := func(phase string) {
				from := t0.Add(time.Duration(5+l.rng.Intn(20)) * time.Minute)
				filters := []Query{
					{},
					{Sources: []string{"p1", "p4", "p6"}},
					{Themes: []string{"rain"}},
					{From: from, To: from.Add(25 * time.Minute)},
					{Sources: []string{"p0"}, From: from},
				}
				for _, f := range filters {
					evs, _, err := w.Select(context.Background(), f)
					if err != nil {
						t.Fatal(err)
					}
					for _, fn := range []ops.AggFunc{ops.AggCount, ops.AggSum, ops.AggAvg, ops.AggMin, ops.AggMax} {
						fields := []string{"temperature"}
						if fn == ops.AggCount {
							fields = []string{"", "temperature"}
						}
						for _, field := range fields {
							for _, group := range [][]string{nil, {"source"}, {"theme"}, {"source", "theme"}} {
								for _, bucket := range []time.Duration{0, time.Minute, 7 * time.Minute} {
									q := AggQuery{Query: f, Func: fn, Field: field, GroupBy: group, Bucket: bucket}
									hot += checkAggregate(t, w, q, evs).HotChunkStats
								}
							}
						}
					}
				}
				if t.Failed() {
					t.Fatalf("phase %s failed", phase)
				}
			}
			l.load(t, w, 6000)
			check("load")
			l.load(t, w, 1500)
			check("more appends")
			w.SetRetention(w.Stats().Events - 2500)
			if w.Evicted() == 0 {
				t.Fatal("the retention cut evicted nothing")
			}
			check("retention cut")
			l.load(t, w, 700)
			check("appends past the cut")
			if !durable && hot == 0 {
				t.Fatal("no hot chunk was answered from its chunk index")
			}
		})
	}
}

// TestHotChunkIndexRace races the first chunk-index build of sealed
// segments, under shard read locks, against appends that seal new ones and
// retention cuts that trim them (which clear the index under the write
// lock). Run it with -race; every aggregate must also stay within what the
// store can hold.
func TestHotChunkIndexRace(t *testing.T) {
	w := NewWithConfig(Config{Shards: 2, SegmentEvents: 600, SegmentSpan: time.Hour})
	l := newPropLoad(11)
	l.load(t, w, 3000)
	const retain = 4000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	var aggs atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}, Bucket: time.Minute}
			if r > 0 {
				q = AggQuery{Func: ops.AggSum, Field: "temperature", Bucket: time.Duration(r) * time.Minute}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, _, err := w.Aggregate(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				aggs.Add(1)
				var n int64
				for _, row := range rows {
					n += row.Count
				}
				if n > retain+600 {
					errs <- fmt.Errorf("aggregate counted %d events, the store holds at most %d", n, retain+600)
					return
				}
			}
		}(r)
	}
	// One writer: the generator's random source is not shared. It goes on
	// until every reader has raced it for a while.
	for i := 0; i < 30 || aggs.Load() < 100; i++ {
		l.load(t, w, 500)
		w.SetRetention(retain - 200*(i%2))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
