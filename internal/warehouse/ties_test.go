package warehouse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamloader/internal/obs"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// The tests in this file hold the (time, seq) algorithms to their cost on a
// tie-heavy store: a schema's granularity aligns every event to an instant,
// so with the bench fleet's minute granularity 24 000 events share each one.
// An algorithm that orders by time where it needs the key moves one event
// per heap operation there. Each gate counts heap operations, which repeat
// on any machine.

// cutBoundBenchShaped is cutBenchShaped's retention bound.
const cutBoundBenchShaped = 100_000

// cutBenchShaped returns the tie-heavy cut store: the bench's in-memory
// store, 16 shards with default segments, bounded at cutBoundBenchShaped
// events and fed ten minutes of its fleet at 50 Hz (appendBenchShaped),
// so it cuts several times on the way.
func cutBenchShaped(tb testing.TB) *Warehouse {
	tb.Helper()
	w := NewWithConfig(Config{Shards: 16, Obs: obs.NewRegistry()})
	w.SetRetention(cutBoundBenchShaped)
	appendBenchShaped(tb, w, 50, 10)
	return w
}

// TestRetentionCutHeapPops gates the retention walk's heap pops on the
// tie-heavy cut store. A cut pops a segment's cursor once per run of its
// keys below every other head: about once per appended batch it evicts and
// once per segment it walks, never once per event.
func TestRetentionCutHeapPops(t *testing.T) {
	w := cutBenchShaped(t)

	cuts := w.met.retentionCut.Snapshot().Count
	evicted, pops := w.Evicted(), w.cutPops.Load()
	if cuts < 3 {
		t.Fatalf("%d cuts, want several", cuts)
	}
	// A cut walks the full segments the bound holds plus up to two part-full
	// ones a shard, and a batch of contiguous seqs is one run.
	segs := uint64(cutBoundBenchShaped/DefaultSegmentEvents + 2*w.NumShards())
	limit := evicted/persist.IndexEvery + cuts*segs
	t.Logf("%d cuts evicted %d events in %d heap pops (%d per cut), limit %d", cuts, evicted, pops, pops/cuts, limit)
	if pops > limit {
		t.Fatalf("%d cuts evicting %d events took %d heap pops, limit %d: the walk moves by events, not by runs of keys",
			cuts, evicted, pops, limit)
	}
}

// TestRetentionTrimRowsHeld gates the rows retention trims leave allocated
// on the tie-heavy cut store. A trim shares its segment's rows with the
// unit it replaces, and they stay until the whole segment is spilled or
// dropped. Only a shard's boundary segments are trimmed, and an active one
// rotates on the rows it holds, so the rows resident segments hold beyond
// their live events stay within two segments a shard.
func TestRetentionTrimRowsHeld(t *testing.T) {
	w := cutBenchShaped(t)
	if cuts := w.met.retentionCut.Snapshot().Count; cuts < 3 {
		t.Fatalf("%d cuts, want several", cuts)
	}
	const limit = 2 * DefaultSegmentEvents
	total, worst := 0, 0
	for i, s := range w.shards {
		s.mu.RLock()
		held := 0
		for _, seg := range s.segs {
			held += seg.rows() - seg.len()
		}
		s.mu.RUnlock()
		total += held
		worst = max(worst, held)
		if held > limit {
			t.Fatalf("shard %d: resident segments hold %d trimmed rows, limit %d", i, held, limit)
		}
	}
	t.Logf("%d trimmed rows held across %d shards (worst shard %d, limit %d); %d live events",
		total, w.NumShards(), worst, limit, w.Len())
}

// TestSelectPageHeapFixes gates the select merge's heap fixes per page on
// BenchmarkSelectPage's store, where a minute's events share one instant
// and each source appends 256-event batches. The merge emits from the top
// cursor while its head is below the runner-up's, so a page costs about a
// fix per batch it crosses and per chunk it reads, not one per event.
func TestSelectPageHeapFixes(t *testing.T) {
	w := openSelectPageStore(t, 0)
	defer w.Close()
	for _, q := range selectPageQueries(t, w) {
		tr := obs.NewTrace("select")
		evs, st, err := w.Select(obs.WithTrace(context.Background(), tr), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != selectPageLimit {
			t.Fatalf("page of %d events, want %d", len(evs), selectPageLimit)
		}
		fixes := int64(-1)
		for _, sp := range tr.Report().Spans {
			if sp.Name == "merge" {
				fixes = sp.Attrs["heap_fixes"]
			}
		}
		limit := int64(selectPageLimit/persist.IndexEvery + 2*st.SegmentsScanned)
		t.Logf("%s: %d heap fixes over %d cursors, limit %d", queryString(q), fixes, st.SegmentsScanned, limit)
		if fixes < 0 || fixes > limit {
			t.Fatalf("%s: a %d-event page over %d cursors took %d heap fixes, limit %d",
				queryString(q), selectPageLimit, st.SegmentsScanned, fixes, limit)
		}
	}
}

// TestRetentionCutOnTiesEqualsModel checks the retention cut against the
// naive model where every event lies on one of at most three instants: 16
// shards, durable, most segments spilled, batches from 24 sources landing
// on random instants. Each cut takes a (time, seq) prefix that runs through
// many files, so it lands inside cold files and trims them through their
// loaded events (the boundary-file path). After each of two cuts, and again
// after a reopen, the live seqs, the eviction count and a set of pages
// must equal the model's exactly.
func TestRetentionCutOnTiesEqualsModel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Shards: 16, SegmentEvents: 16, SegmentSpan: time.Hour,
			DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever, CompactBelow: -1}
		w, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := &refModel{}
		instants := 1 + rng.Intn(3)
		ingest := func(batches int) {
			for b := 0; b < batches; b++ {
				src := fmt.Sprintf("st-%d", rng.Intn(24))
				at := time.Duration(rng.Intn(instants)) * time.Minute
				batch := make([]*stt.Tuple, 1+rng.Intn(40))
				for i := range batch {
					batch[i] = wTuple(at, float64(rng.Intn(40)), src, 34.5+rng.Float64()*0.4, 135.3+rng.Float64()*0.4)
				}
				if err := w.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				m.append(batch...)
			}
			w.DrainSpills()
		}
		check := func(stage string) {
			t.Helper()
			live := map[uint64]bool{}
			for _, ev := range gatherLive(t, w) {
				live[ev.Seq] = true
			}
			if len(live) != len(m.events) {
				t.Fatalf("seed %d %s: %d live events, model %d", seed, stage, len(live), len(m.events))
			}
			for _, ev := range m.events {
				if !live[ev.Seq] {
					t.Fatalf("seed %d %s: seq %d evicted, the model keeps it", seed, stage, ev.Seq)
				}
			}
			for i := 0; i < 20; i++ {
				q := randomPageQuery(rng, len(m.events))
				got, _, err := w.Select(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want := m.selectQ(q)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s %s: %d events, model %d", seed, stage, queryString(q), len(got), len(want))
				}
				for j := range got {
					if got[j].Seq != want[j].Seq {
						t.Fatalf("seed %d %s %s: [%d] seq %d, model %d", seed, stage, queryString(q), j, got[j].Seq, want[j].Seq)
					}
				}
			}
		}
		cut := func(stage string, bound int) {
			t.Helper()
			w.SetRetention(bound)
			m.setRetention(bound)
			if w.Evicted() != uint64(m.evicted) {
				t.Fatalf("seed %d %s: %d events evicted, model %d", seed, stage, w.Evicted(), m.evicted)
			}
			trimmed := 0
			for _, s := range w.shards {
				for _, cs := range s.cold {
					if cs.skip > 0 {
						trimmed++
					}
				}
			}
			if trimmed == 0 {
				t.Fatalf("seed %d %s: the cut trimmed no cold file", seed, stage)
			}
			check(stage)
		}

		ingest(150)
		if w.Stats().SegmentsCold < 32 {
			t.Fatalf("seed %d: only %d cold files", seed, w.Stats().SegmentsCold)
		}
		cut("first cut", len(m.events)*2/3)
		ingest(100)
		cut("second cut", len(m.events)*2/3)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		check("reopened")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetentionCutLockHoldObserved: streamloader_warehouse_retention_cut_seconds
// observes each cut's hold of every shard's write lock once, and only cuts:
// appends under the bound observe nothing.
func TestRetentionCutLockHoldObserved(t *testing.T) {
	const (
		bound = 1000
		batch = 100
	)
	w := NewWithConfig(Config{Shards: 4, Obs: obs.NewRegistry()})
	w.SetRetention(bound)
	live, cuts := 0, uint64(0)
	for b := 0; b < 40; b++ {
		tups := make([]*stt.Tuple, batch)
		for i := range tups {
			tups[i] = wTuple(time.Duration(b)*time.Minute, float64(i%40), fmt.Sprintf("st-%d", i%6), 34.7, 135.5)
		}
		if err := w.AppendBatch(tups); err != nil {
			t.Fatal(err)
		}
		if live += batch; live > bound {
			live, cuts = bound*3/4, cuts+1
		}
		if got := w.met.retentionCut.Snapshot().Count; got != cuts {
			t.Fatalf("after batch %d: %d lock holds observed, %d cuts", b, got, cuts)
		}
		if w.Len() != live {
			t.Fatalf("after batch %d: %d events, want %d", b, w.Len(), live)
		}
	}
	if cuts < 10 {
		t.Fatalf("only %d cuts", cuts)
	}
}
