package warehouse

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamloader/internal/ops"
	"streamloader/internal/persist"
)

// Tests for the bucketed-partial trim paths: retention cuts that drop
// whole frames, subtract exact boundary deltas, or queue a one-bucket
// rescan — each proved byte-identical to a from-scratch Aggregate of the
// surviving events. Temperatures are integral throughout, so float sums
// are exact in any fold order and diffAggRows' exact != is a fair judge.

// trimLoad fills w with n integral-temperature events, one per minute,
// across 3 sources.
func trimLoad(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Append(wTuple(time.Duration(i)*time.Minute, float64(i%30),
			fmt.Sprintf("s-%d", i%3), 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestViewTrimSubtractableNoRebuild: a retention cut against bucketed
// COUNT/SUM/AVG views patches the partials in place — whole frames drop,
// the boundary frame subtracts — without ever marking the view dirty or
// queueing a rescan, and the result equals a fresh Aggregate.
func TestViewTrimSubtractableNoRebuild(t *testing.T) {
	queries := []AggQuery{
		{Func: ops.AggCount, Bucket: time.Hour},
		{Func: ops.AggSum, Field: "temperature", Bucket: time.Hour, GroupBy: []string{"source"}},
		{Func: ops.AggAvg, Field: "temperature", Bucket: 30 * time.Minute},
	}
	for _, q := range queries {
		w := NewWithConfig(Config{Shards: 2, SegmentEvents: 16})
		trimLoad(t, w, 300)
		v, err := w.RegisterView(q, ops.UpdatePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		rescans0 := w.viewBoundaryRescans.Load()
		w.SetRetention(80)
		waitFor(t, 5*time.Second, "retention to evict", func() bool { return w.Len() <= 80 })
		if v.dirty.Load() {
			t.Errorf("%v: cut marked a subtractable bucketed view dirty (full rebuild)", q.Func)
		}
		if v.pendingRescans() {
			t.Errorf("%v: cut queued a boundary rescan for a subtractable aggregate", q.Func)
		}
		got, err := v.Rows()
		if err != nil {
			t.Fatal(err)
		}
		want := aggRows(t, w, q)
		if diffAggRows(got, want) != "" {
			t.Errorf("%v: trimmed view diverges from rebuild: %s", q.Func, diffAggRows(got, want))
		}
		if n := w.viewBoundaryRescans.Load(); n != rescans0 {
			t.Errorf("%v: %d boundary rescans ran for a subtractable aggregate, want 0", q.Func, n-rescans0)
		}
		if w.viewFrameDrops.Load() == 0 {
			t.Errorf("%v: cut dropped no frames whole", q.Func)
		}
		v.Release()
		w.Close()
	}
}

// TestViewTrimMinMaxBoundaryRescan: MIN/MAX cannot un-observe an evicted
// extremum, so the cut's boundary bucket re-derives from a one-bucket
// rescan — never a full rebuild — and the result still equals Aggregate.
func TestViewTrimMinMaxBoundaryRescan(t *testing.T) {
	for _, fn := range []ops.AggFunc{ops.AggMin, ops.AggMax} {
		w := NewWithConfig(Config{Shards: 2, SegmentEvents: 16})
		trimLoad(t, w, 300)
		q := AggQuery{Func: fn, Field: "temperature", Bucket: time.Hour, GroupBy: []string{"source"}}
		v, err := w.RegisterView(q, ops.UpdatePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		w.SetRetention(80)
		waitFor(t, 5*time.Second, "retention to evict", func() bool { return w.Len() <= 80 })
		if v.dirty.Load() {
			t.Errorf("%v: cut marked a bucketed view dirty; boundary rescan should suffice", fn)
		}
		got, err := v.Rows()
		if err != nil {
			t.Fatal(err)
		}
		want := aggRows(t, w, q)
		if diffAggRows(got, want) != "" {
			t.Errorf("%v: post-rescan view diverges: %s", fn, diffAggRows(got, want))
		}
		if v.pendingRescans() {
			t.Errorf("%v: Rows left rescans queued", fn)
		}
		v.Release()
		w.Close()
	}
}

// TestViewTrimRepeatedCutsStayExact: several successive cuts against live
// bucketed views (one subtractable, one MIN) keep matching Aggregate at
// every step — the trims compose.
func TestViewTrimRepeatedCutsStayExact(t *testing.T) {
	w := NewWithConfig(Config{Shards: 2, SegmentEvents: 16})
	defer w.Close()
	qs := []AggQuery{
		{Func: ops.AggSum, Field: "temperature", Bucket: time.Hour},
		{Func: ops.AggMin, Field: "temperature", Bucket: time.Hour},
	}
	views := make([]*View, len(qs))
	trimLoad(t, w, 100)
	for i, q := range qs {
		v, err := w.RegisterView(q, ops.UpdatePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		views[i] = v
	}
	for round := 0; round < 4; round++ {
		// Grow past the bound again so each round cuts anew.
		for i := 0; i < 120; i++ {
			off := time.Duration(100+round*120+i) * time.Minute
			if err := w.Append(wTuple(off, float64(i%25), fmt.Sprintf("s-%d", i%3), 34.7, 135.5)); err != nil {
				t.Fatal(err)
			}
		}
		w.SetRetention(90)
		waitFor(t, 5*time.Second, "retention to evict", func() bool { return w.Len() <= 90 })
		w.SetRetention(0)
		for i, v := range views {
			got, err := v.Rows()
			if err != nil {
				t.Fatal(err)
			}
			want := aggRows(t, w, qs[i])
			if diffAggRows(got, want) != "" {
				t.Fatalf("round %d view %d diverged: %s", round, i, diffAggRows(got, want))
			}
		}
	}
}

// TestViewTrimUnbucketed: without a bucket there is one frame, so
// COUNT/SUM/AVG still subtract exactly while MIN degrades to the dirty
// flag and rebuilds — and both end up equal to Aggregate.
func TestViewTrimUnbucketed(t *testing.T) {
	for _, q := range []AggQuery{
		{Func: ops.AggSum, Field: "temperature", GroupBy: []string{"source"}},
		{Func: ops.AggMin, Field: "temperature"},
	} {
		w := NewWithConfig(Config{Shards: 2, SegmentEvents: 16})
		trimLoad(t, w, 200)
		v, err := w.RegisterView(q, ops.UpdatePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		w.SetRetention(50)
		waitFor(t, 5*time.Second, "retention to evict", func() bool { return w.Len() <= 50 })
		if q.Func == ops.AggSum && v.dirty.Load() {
			t.Error("unbucketed SUM went dirty; in-memory eviction should subtract exactly")
		}
		// The publisher may already have rebuilt and cleared the dirty flag,
		// so MIN is checked by what it must not have done.
		if q.Func == ops.AggMin && w.viewSubtractions.Load() != 0 {
			t.Error("unbucketed MIN subtracted; it cannot un-observe and must rebuild")
		}
		got, err := v.Rows()
		if err != nil {
			t.Fatal(err)
		}
		want := aggRows(t, w, q)
		if diffAggRows(got, want) != "" {
			t.Errorf("%v: post-cut view diverges: %s", q.Func, diffAggRows(got, want))
		}
		v.Release()
		w.Close()
	}
}

// TestViewTrimDurableColdDrops: cuts over spilled history — where whole
// cold files drop by their envelope without ever being read — stay exact:
// the boundary falls back to a rescan or rebuild as needed and Rows keeps
// matching Aggregate.
func TestViewTrimDurableColdDrops(t *testing.T) {
	w, err := Open(Config{
		Shards: 2, SegmentEvents: 16, SegmentSpan: 10 * time.Minute,
		DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	trimLoad(t, w, 400)
	w.DrainSpills()
	qs := []AggQuery{
		{Func: ops.AggSum, Field: "temperature", Bucket: time.Hour},
		{Func: ops.AggMax, Field: "temperature", Bucket: time.Hour, GroupBy: []string{"source"}},
	}
	views := make([]*View, len(qs))
	for i, q := range qs {
		v, err := w.RegisterView(q, ops.UpdatePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Release()
		views[i] = v
	}
	w.SetRetention(120)
	waitFor(t, 5*time.Second, "retention to evict", func() bool { return w.Len() <= 120 })
	for i, v := range views {
		got, err := v.Rows()
		if err != nil {
			t.Fatal(err)
		}
		want := aggRows(t, w, qs[i])
		if diffAggRows(got, want) != "" {
			t.Errorf("view %d over cold history diverged: %s", i, diffAggRows(got, want))
		}
	}
}

// TestViewWindowExpiry: a windowed view's rows only ever cover buckets
// overlapping the trailing window on the warehouse clock, stay equal to a
// windowed Aggregate as the clock advances, and physically release
// expired frames on prune.
func TestViewWindowExpiry(t *testing.T) {
	w := NewWithConfig(Config{Shards: 2, SegmentEvents: 32})
	defer w.Close()
	var offset atomic.Int64
	base := t0.Add(10 * time.Hour)
	w.nowFn = func() time.Time { return base.Add(time.Duration(offset.Load())) }

	trimLoad(t, w, 600) // 10 hours of minutely events
	q := AggQuery{Func: ops.AggCount, Bucket: time.Hour, Window: 3 * time.Hour, GroupBy: []string{"source"}}
	v, err := w.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()

	check := func(stage string) {
		t.Helper()
		got, err := v.Rows()
		if err != nil {
			t.Fatal(err)
		}
		want := aggRows(t, w, q)
		if len(want) == 0 {
			t.Fatalf("%s: windowed aggregate came back empty; bad test setup", stage)
		}
		if diffAggRows(got, want) != "" {
			t.Errorf("%s: windowed view diverges: %s", stage, diffAggRows(got, want))
		}
		cutoff := w.now().Add(-q.Window)
		for _, r := range got {
			if !r.Bucket.Add(q.Bucket).After(cutoff) {
				t.Errorf("%s: bucket %v is outside the %v window at %v", stage, r.Bucket, q.Window, w.now())
			}
		}
	}
	check("initial")

	// Advance the clock two hours: two more buckets expire without any
	// ingest, by the read-side filter alone.
	offset.Store(int64(2 * time.Hour))
	check("after +2h")

	// The physical prune releases the expired frames too.
	frames := func() int {
		n := 0
		for _, p := range v.parts {
			p.mu.Lock()
			n += p.store.FrameCount()
			p.mu.Unlock()
		}
		return n
	}
	before := frames()
	if v.pruneExpired() == 0 {
		t.Fatal("pruneExpired dropped nothing with 9 expired buckets held")
	}
	if after := frames(); after >= before {
		t.Errorf("prune left %d frames, had %d", after, before)
	}
	check("after prune")

	// New events keep folding in after expiry churn.
	for i := 0; i < 30; i++ {
		off := 10*time.Hour + 2*time.Hour + time.Duration(i)*time.Minute
		if err := w.Append(wTuple(off, float64(i), fmt.Sprintf("s-%d", i%3), 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	check("after fresh ingest")
}

// TestViewWindowRequiresBucket: window semantics are bucket-granular, so
// a window without a bucket is rejected at plan time.
func TestViewWindowRequiresBucket(t *testing.T) {
	w := New()
	defer w.Close()
	if _, err := w.RegisterView(AggQuery{Func: ops.AggCount, Window: time.Hour}, ops.UpdatePolicy{}); err == nil {
		t.Fatal("window without bucket registered; want a plan error")
	}
}

// TestViewCheckpointResume: a durable warehouse persists view state on
// clean shutdown; re-registering the same (query, policy) after reopen
// resumes from the checkpoint plus a WAL-tail fold instead of a history
// scan, and the resumed rows are byte-identical to a full rebuild.
func TestViewCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 2, SegmentEvents: 16, SegmentSpan: 10 * time.Minute,
		DataDir: dir, HotSegments: 1, Sync: persist.SyncNever,
	}
	q := AggQuery{Func: ops.AggSum, Field: "temperature", Bucket: time.Hour, GroupBy: []string{"source"}}

	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trimLoad(t, w, 300)
	v, err := w.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	v.Release() // clean last release persists the final checkpoint
	if w.viewCheckpoints.Load() == 0 {
		t.Fatal("clean release wrote no checkpoint")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// Tail events committed after the checkpoint, before re-registration.
	for i := 0; i < 50; i++ {
		off := 300*time.Minute + time.Duration(i)*time.Minute
		if err := w2.Append(wTuple(off, float64(i%20), fmt.Sprintf("s-%d", i%3), 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	v2, err := w2.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	if n := w2.viewResumes.Load(); n != 1 {
		t.Fatalf("ViewResumes = %d, want 1 (registration should have resumed from the checkpoint)", n)
	}
	got, err := v2.Rows()
	if err != nil {
		t.Fatal(err)
	}
	want := aggRows(t, w2, q)
	if diffAggRows(got, want) != "" {
		t.Fatalf("resumed view diverges from rebuild: %s", diffAggRows(got, want))
	}
	// Incremental maintenance continues normally after a resume.
	if err := w2.Append(wTuple(400*time.Minute, 7, "s-0", 34.7, 135.5)); err != nil {
		t.Fatal(err)
	}
	got, err = v2.Rows()
	if err != nil {
		t.Fatal(err)
	}
	want = aggRows(t, w2, q)
	if diffAggRows(got, want) != "" {
		t.Fatalf("post-resume fold diverges: %s", diffAggRows(got, want))
	}
	// The manifest records the standing view's definition.
	found := false
	for _, rec := range w2.pers.manifest.Views {
		if rec.Key == v2.key {
			found = true
			if rec.Query == "" || rec.Policy == "" || rec.File == "" {
				t.Errorf("incomplete view record: %+v", rec)
			}
		}
	}
	if !found {
		t.Error("manifest carries no record for the registered view")
	}
}

// TestViewCheckpointInvalidatedByEviction: an eviction after the
// checkpoint changes the cut fingerprint, so the resume is rejected and
// the registration backfills — correctly.
func TestViewCheckpointInvalidatedByEviction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 2, SegmentEvents: 16, SegmentSpan: 10 * time.Minute,
		DataDir: dir, HotSegments: 1, Sync: persist.SyncNever,
	}
	q := AggQuery{Func: ops.AggAvg, Field: "temperature", Bucket: time.Hour}

	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trimLoad(t, w, 300)
	v, err := w.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	w2.SetRetention(100)
	waitFor(t, 5*time.Second, "retention to evict", func() bool { return w2.Len() <= 100 })
	v2, err := w2.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	if n := w2.viewResumes.Load(); n != 0 {
		t.Fatalf("ViewResumes = %d after an eviction invalidated the checkpoint, want 0", n)
	}
	got, err := v2.Rows()
	if err != nil {
		t.Fatal(err)
	}
	want := aggRows(t, w2, q)
	if diffAggRows(got, want) != "" {
		t.Fatalf("backfilled view diverges: %s", diffAggRows(got, want))
	}
}

// TestViewCheckpointCrashSafe: a hard crash (CloseHard, no final
// checkpoint) either leaves a stale-but-valid checkpoint or none; the
// next registration must converge to the truth either way.
func TestViewCheckpointCrashSafe(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 2, SegmentEvents: 16, SegmentSpan: 10 * time.Minute,
		DataDir: dir, HotSegments: 1, Sync: persist.SyncAlways,
		// A tiny interval so the publisher checkpoints mid-run.
		ViewCheckpointEvery: 1,
	}
	q := AggQuery{Func: ops.AggCount, Bucket: time.Hour, GroupBy: []string{"source"}}

	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trimLoad(t, w, 100)
	v, err := w.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// More folds so the publisher has mutations to checkpoint after.
	for i := 0; i < 100; i++ {
		off := 100*time.Minute + time.Duration(i)*time.Minute
		if err := w.Append(wTuple(off, float64(i%10), fmt.Sprintf("s-%d", i%3), 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "a mid-run checkpoint", func() bool { return w.viewCheckpoints.Load() > 0 })
	_ = v
	w.CloseHard()

	w2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	v2, err := w2.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	got, err := v2.Rows()
	if err != nil {
		t.Fatal(err)
	}
	want := aggRows(t, w2, q)
	if diffAggRows(got, want) != "" {
		t.Fatalf("post-crash registration diverges: %s", diffAggRows(got, want))
	}
}
