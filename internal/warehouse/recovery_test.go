package warehouse

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// durableCfg is a small, spill-happy configuration: tiny segments and a
// one-segment hot budget force most history onto disk.
func durableCfg(dir string) Config {
	return Config{
		Shards: 4, SegmentEvents: 16, SegmentSpan: 10 * time.Minute,
		DataDir: dir, HotSegments: 1, Sync: persist.SyncNever,
	}
}

// ingestMixed appends n events over several sources with occasional
// stragglers, mirroring the fleet shape the executor produces.
func ingestMixed(t *testing.T, w *Warehouse, n int) []*stt.Tuple {
	t.Helper()
	sources := []string{"umeda", "namba", "kyoto", "sakai"}
	var all []*stt.Tuple
	batch := make([]*stt.Tuple, 0, 8)
	for i := 0; i < n; i++ {
		off := time.Duration(i) * time.Minute
		if i%11 == 7 {
			off -= 90 * time.Minute // straggler into sealed history
		}
		tup := wTuple(off, float64(i%35), sources[i%len(sources)],
			34.4+float64(i%40)*0.01, 135.2+float64(i%40)*0.01)
		all = append(all, tup)
		batch = append(batch, tup)
		if len(batch) == cap(batch) {
			if err := w.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	return all
}

// sameSelect asserts two warehouses answer a query identically, event for
// event (Seq, time, payload).
func sameSelect(t *testing.T, got, want *Warehouse, q Query) {
	t.Helper()
	gevs, _, err := got.Select(context.Background(), q)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	wevs, _, err := want.Select(context.Background(), q)
	if err != nil {
		t.Fatalf("reference select: %v", err)
	}
	if len(gevs) != len(wevs) {
		t.Fatalf("select %+v: %d events, want %d", q, len(gevs), len(wevs))
	}
	for i := range gevs {
		if gevs[i].Seq != wevs[i].Seq {
			t.Fatalf("select %+v: [%d].Seq = %d, want %d", q, i, gevs[i].Seq, wevs[i].Seq)
		}
		g, w2 := gevs[i].Tuple, wevs[i].Tuple
		if !g.Time.Equal(w2.Time) || g.Source != w2.Source {
			t.Fatalf("select %+v: [%d] = %v, want %v", q, i, g, w2)
		}
		if g.Schema.IndexOf("temperature") >= 0 &&
			g.MustGet("temperature").AsFloat() != w2.MustGet("temperature").AsFloat() {
			t.Fatalf("select %+v: [%d] payload differs", q, i)
		}
	}
}

// queriesOver builds a representative query mix over the ingested span.
func queriesOver() []Query {
	region := geo.NewRect(geo.Point{Lat: 34.4, Lon: 135.2}, geo.Point{Lat: 34.6, Lon: 135.4})
	return []Query{
		{},
		{From: t0.Add(30 * time.Minute), To: t0.Add(2 * time.Hour)},
		{Sources: []string{"umeda", "kyoto"}},
		{Themes: []string{"weather"}},
		{Region: &region},
		{Cond: "temperature > 20"},
		{From: t0, To: t0.Add(3 * time.Hour), Limit: 25},
	}
}

func TestOpenWithoutDataDirIsInMemory(t *testing.T) {
	w, err := Open(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.pers != nil {
		t.Fatal("expected in-memory warehouse")
	}
	if err := w.Append(wTuple(0, 20, "s", 34.7, 135.5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpilledEqualsInMemory is the acceptance criterion: a mixed
// hot/spilled history answers every query byte-identically to the pure
// in-memory configuration.
func TestSpilledEqualsInMemory(t *testing.T) {
	dir := t.TempDir()
	durable, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	mem := NewWithConfig(Config{Shards: 4, SegmentEvents: 16, SegmentSpan: 10 * time.Minute})

	tuples := ingestMixed(t, durable, 600)
	if err := mem.AppendBatch(tuples); err != nil {
		t.Fatal(err)
	}

	durable.DrainSpills() // settle the async spill pipeline before comparing
	if durable.Stats().SegmentsSpilled == 0 {
		t.Fatal("configuration did not spill; test is vacuous")
	}
	for _, q := range queriesOver() {
		sameSelect(t, durable, mem, q)
		gn, _, err := durable.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		wn, _, err := mem.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if gn != wn {
			t.Fatalf("count %+v = %d, want %d", q, gn, wn)
		}
	}

	// Envelope pruning still applies to spilled segments: a narrow window
	// over a wide history must not open most files.
	_, qs, err := durable.Select(context.Background(), Query{From: t0.Add(8 * time.Hour), To: t0.Add(8*time.Hour + 10*time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if qs.SegmentsPruned == 0 || qs.SegmentsScanned > qs.SegmentsPruned {
		t.Errorf("narrow window scanned %d, pruned %d", qs.SegmentsScanned, qs.SegmentsPruned)
	}
}

func TestCrashRecoveryRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	tuples := ingestMixed(t, w, 500)
	beforeLen := w.Len()
	beforeStats := w.Stats()
	w.CloseHard() // crash

	re, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != beforeLen {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), beforeLen)
	}
	st := re.Stats()
	if st.RecoveredEvents != uint64(beforeLen) {
		t.Errorf("recovered_events = %d, want %d", st.RecoveredEvents, beforeLen)
	}
	if st.Sources != beforeStats.Sources {
		t.Errorf("sources = %d, want %d", st.Sources, beforeStats.Sources)
	}
	if !st.Earliest.Equal(beforeStats.Earliest) || !st.Latest.Equal(beforeStats.Latest) {
		t.Errorf("time bounds %v..%v, want %v..%v", st.Earliest, st.Latest, beforeStats.Earliest, beforeStats.Latest)
	}

	// The recovered store answers like a fresh in-memory store holding
	// the same tuples.
	mem := NewWithConfig(Config{Shards: 4, SegmentEvents: 16, SegmentSpan: 10 * time.Minute})
	if err := mem.AppendBatch(tuples); err != nil {
		t.Fatal(err)
	}
	for _, q := range queriesOver() {
		sameSelect(t, re, mem, q)
	}

	// And ingest continues: sequence numbers must not collide with
	// recovered ones.
	if err := re.Append(wTuple(1000*time.Minute, 21, "umeda", 34.7, 135.5)); err != nil {
		t.Fatal(err)
	}
	evs, _, err := re.Select(context.Background(), Query{Sources: []string{"umeda"}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d after recovery", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestRecoveryAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, w, 200)
	n := w.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wTuple(0, 20, "s", 34.7, 135.5)); err == nil {
		t.Fatal("append after Close must fail")
	}
	re, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("Len = %d, want %d", re.Len(), n)
	}
}

func TestRetentionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	w.SetRetention(150)
	ingestMixed(t, w, 600)
	beforeLen := w.Len()
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	oldest := evs[0]
	w.CloseHard()

	re, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Evicted events must not be resurrected from the WAL or from
	// spilled files.
	if re.Len() != beforeLen {
		t.Fatalf("recovered Len = %d, want %d (no resurrection)", re.Len(), beforeLen)
	}
	revs, _, err := re.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if revs[0].Seq != oldest.Seq || !revs[0].Tuple.Time.Equal(oldest.Tuple.Time) {
		t.Fatalf("recovered oldest = %d@%v, want %d@%v",
			revs[0].Seq, revs[0].Tuple.Time, oldest.Seq, oldest.Tuple.Time)
	}
}

func TestWALCheckpointBoundsLogSize(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.WALBytes = 8 << 10 // rotate often so spills can retire files
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ingestMixed(t, w, 3000)
	w.DrainSpills() // checkpointing rides the spill worker; let it finish
	st := w.Stats()
	if st.SegmentsSpilled == 0 {
		t.Fatal("no spills")
	}
	// Nearly all events are spilled; checkpointing must have deleted the
	// bulk of the log. Allow generous slack for live tails.
	if st.WALBytes > st.DiskBytes/2 {
		t.Errorf("wal_bytes = %d of disk_bytes = %d; checkpoint not retiring files", st.WALBytes, st.DiskBytes)
	}
	walFiles := 0
	for i := 0; i < w.NumShards(); i++ {
		glob, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", i), "wal-*.log"))
		walFiles += len(glob)
	}
	if walFiles == 0 {
		t.Fatal("no live wal files")
	}
}

func TestRetentionDeletesColdFilesWhole(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ingestMixed(t, w, 800)
	w.DrainSpills() // cold files exist only once the background spills land
	spilledBytes := w.coldBytes.Load()
	if spilledBytes == 0 {
		t.Fatal("no cold bytes before retention")
	}
	segFiles := func() int {
		n := 0
		for i := 0; i < w.NumShards(); i++ {
			glob, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", i), "seg-*.seg"))
			n += len(glob)
		}
		return n
	}
	before := segFiles()
	w.SetRetention(100)
	if after := segFiles(); after >= before {
		t.Fatalf("segment files %d -> %d; retention must delete cold files", before, after)
	}
	if w.coldBytes.Load() >= spilledBytes {
		t.Fatal("cold byte accounting did not shrink")
	}
	if w.Len() > 100 {
		t.Fatalf("Len = %d after retention", w.Len())
	}
	// Queries still work over the surviving mixed history.
	if _, _, err := w.Select(context.Background(), Query{}); err != nil {
		t.Fatal(err)
	}
}

// TestColdCacheServesRepeatQueries: the second identical window query over
// spilled history must be served from the chunk cache, with identical
// results and the hit/miss split visible in QueryStats and Stats.
func TestColdCacheServesRepeatQueries(t *testing.T) {
	w, err := Open(durableCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ingestMixed(t, w, 600)
	w.DrainSpills()
	// Settle the compactor too: a merge landing between the two passes
	// swaps in a file neither pass has cached.
	w.CompactNow()
	if w.Stats().SegmentsCold == 0 {
		t.Fatal("nothing spilled")
	}

	q := Query{From: t0, To: t0.Add(4 * time.Hour)}
	first, qs1, err := w.Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if qs1.ColdCacheMisses == 0 {
		t.Fatalf("cold first pass reported no chunk misses: %+v", qs1)
	}
	second, qs2, err := w.Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if qs2.ColdCacheHits == 0 || qs2.ColdCacheMisses != 0 {
		t.Fatalf("repeat pass hits=%d misses=%d, want all hits", qs2.ColdCacheHits, qs2.ColdCacheMisses)
	}
	if len(first) != len(second) {
		t.Fatalf("cached pass returned %d events, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i].Seq != second[i].Seq {
			t.Fatalf("cached pass diverges at %d", i)
		}
	}
	st := w.Stats()
	if st.ColdCacheHits == 0 || st.ColdCacheMisses == 0 || st.ColdCacheBytes <= 0 {
		t.Fatalf("cache counters missing from Stats: %+v", st)
	}

	// A cache-disabled warehouse answers identically and reports only
	// misses.
	cfg := durableCfg(t.TempDir())
	cfg.ColdCacheBytes = -1
	off, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	ingestMixed(t, off, 600)
	off.DrainSpills()
	evs, qs, err := off.Select(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if qs.ColdCacheHits != 0 || qs.ColdCacheMisses == 0 {
		t.Fatalf("disabled cache reported hits=%d misses=%d", qs.ColdCacheHits, qs.ColdCacheMisses)
	}
	if len(evs) != len(first) {
		t.Fatalf("disabled-cache select = %d events, want %d", len(evs), len(first))
	}
	if st := off.Stats(); st.ColdCacheBytes != 0 || st.ColdCacheHits != 0 {
		t.Fatalf("disabled cache leaks stats: %+v", st)
	}
}

func TestManifestPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Shards = 4
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, w, 100)
	n := w.Len()
	w.CloseHard()

	cfg.Shards = 32 // disagreeing config must lose to the manifest
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 4 {
		t.Fatalf("shards = %d, want manifest's 4", re.NumShards())
	}
	if re.Len() != n {
		t.Fatalf("Len = %d, want %d", re.Len(), n)
	}
}

func TestTornWALTailRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Shards = 1 // single shard so the torn file is deterministic
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := w.Append(wTuple(time.Duration(i)*time.Minute, 20, "s", 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	w.CloseHard()

	// Tear the newest WAL file mid-record.
	glob, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal-*.log"))
	if err != nil || len(glob) == 0 {
		t.Fatalf("wal files: %v, %v", glob, err)
	}
	last := glob[len(glob)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Exactly the torn record is lost; everything else survives.
	if re.Len() != 39 {
		t.Fatalf("Len = %d after torn tail, want 39", re.Len())
	}
}

// TestCrashedCompactionAfterVictimDeletedByCut reconstructs the on-disk
// state of a specific crash interleaving that raw-seq duplicate detection
// alone cannot untangle:
//
//  1. the background cold-file compactor picks victims V1 and V2, reads
//     their live events, and publishes the merged file F (newest gen);
//  2. before the swap, an inline retention cut evicts all of V1 — deleting
//     its file outright — while V2 survives above the watermark;
//  3. the process dies before installCompaction runs, leaving F behind.
//
// Recovery registers V2, then reaches F. F is not a raw-seq subset of the
// registered files (the dead V1's seqs exist nowhere else), so the
// duplicate sweep keeps it — but after the watermark re-trim removes V1's
// evicted events, every survivor F holds is exactly V2's live history,
// already registered. Registering F double-counted those survivors: the
// CrashReopen/CrashMidSpill model-check divergence (impl Len above the
// model by one victim file's survivor count).
func TestCrashedCompactionAfterVictimDeletedByCut(t *testing.T) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shard-000")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// V1: seqs 0-3, all below the watermark (the cut will delete it whole).
	var v1 []persist.Event
	for i := 0; i < 4; i++ {
		tup := wTuple(time.Duration(i)*time.Minute, 20, "s", 34.7, 135.5)
		v1 = append(v1, persist.Event{Seq: uint64(i), Tuple: tup})
	}
	// V2: seqs 4-10, all above the watermark (survives the cut untouched).
	var v2 []persist.Event
	for i := 0; i < 7; i++ {
		tup := wTuple(time.Duration(10+i)*time.Minute, 20, "s", 34.7, 135.5)
		v2 = append(v2, persist.Event{Seq: uint64(4 + i), Tuple: tup})
	}
	merged := append(append([]persist.Event{}, v1...), v2...)
	persist.SortEvents(merged)

	write := func(gen int, events []persist.Event) string {
		path := filepath.Join(shardDir, persist.SegmentFileName(gen))
		if _, err := persist.WriteSegment(path, events); err != nil {
			t.Fatal(err)
		}
		return path
	}
	v1Path := write(0, v1)
	write(1, v2)
	write(2, merged) // the published, never-installed compaction output

	// The retention cut: watermark above all of V1, below all of V2; its
	// mark postdates every file, so the watermark applies to all three.
	man := persist.Manifest{Version: 1, Shards: 1, MaxSeq: 10}
	man.AddCut(persist.Cut{
		Watermark: persist.Key{Time: t0.Add(5 * time.Minute), Seq: ^uint64(0)},
		Marks:     []persist.ShardMark{{WALFile: 1, WALOff: 1 << 40, SegGen: 3}},
	})
	if err := persist.SaveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	// The cut already deleted V1's file before the crash.
	if err := os.Remove(v1Path); err != nil {
		t.Fatal(err)
	}

	cfg := durableCfg(dir)
	cfg.Shards = 1
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Len(); got != len(v2) {
		t.Fatalf("Len = %d after recovery, want %d (V2's survivors once)", got, len(v2))
	}
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("seq %d returned twice: merged compaction file resurrected a survivor", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	// The merged file must be gone, not just logically empty.
	if _, err := os.Stat(filepath.Join(shardDir, persist.SegmentFileName(2))); !os.IsNotExist(err) {
		t.Fatalf("merged file still present after recovery (stat err %v)", err)
	}
}

// maxSelectSeq returns the highest Seq among all live events.
func maxSelectSeq(t *testing.T, w *Warehouse) uint64 {
	t.Helper()
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	var max uint64
	for _, ev := range evs {
		if ev.Seq > max {
			max = ev.Seq
		}
	}
	return max
}

// TestManifestCarriesSeqHighWater: a retention cut deletes whole cold
// files; the manifest it saves must carry the seq high-water mark, because
// the deleted files may hold the only remaining trace of the highest seqs
// (spilled, then WAL-checkpointed). Without the stamp a crash after such a
// cut regresses the counter and recovery reissues live sequence numbers.
func TestManifestCarriesSeqHighWater(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ingestMixed(t, w, 300)
	w.DrainSpills()
	w.SetRetention(10)
	man, _, err := persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.MaxSeq != 299 {
		t.Fatalf("manifest MaxSeq = %d after cut, want 299", man.MaxSeq)
	}
}

// TestRecoveryHonorsManifestSeqHighWater: recovery must seed the sequence
// counter past the manifest's high-water mark even when no surviving event
// carries it, so post-crash appends never reuse a pre-crash seq.
func TestRecoveryHonorsManifestSeqHighWater(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, w, 40)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.MaxSeq = 1000 // as if seqs up to 1000 were assigned, then evicted
	if err := persist.SaveManifest(dir, man); err != nil {
		t.Fatal(err)
	}

	re, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Append(wTuple(8*time.Hour, 21, "umeda", 34.7, 135.5)); err != nil {
		t.Fatal(err)
	}
	if got := maxSelectSeq(t, re); got != 1001 {
		t.Fatalf("first post-recovery append got seq %d, want 1001", got)
	}
	// The raised counter goes durable at the next manifest write too.
	re.SetRetention(5)
	man, _, err = persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.MaxSeq != 1001 {
		t.Fatalf("manifest MaxSeq = %d after retention cut, want 1001", man.MaxSeq)
	}
}

// TestManifestSaveFailureIsCounted: a retention cut whose manifest save fails
// still evicts — the documented decision: the worst case after a crash is
// re-evicting — but the failure is no longer dropped: each one is counted in
// Stats.ManifestSaveErrors and logged once. The save is made to fail in a way
// that fails for root too: a non-empty directory squats on the manifest's
// temp name.
func TestManifestSaveFailureIsCounted(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ingestMixed(t, w, 400)
	w.DrainSpills()
	w.CompactNow() // settle the compactor, so every save below is the cut's
	if n := w.Stats().ManifestSaveErrors; n != 0 {
		t.Fatalf("ManifestSaveErrors = %d on a healthy directory", n)
	}
	before, _, err := persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}

	squat := filepath.Join(dir, "MANIFEST.json.tmp")
	if err := os.MkdirAll(filepath.Join(squat, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	w.SetRetention(100)
	if w.Evicted() == 0 || w.Len() > 100 {
		t.Fatalf("eviction did not proceed past the failed save: evicted %d, len %d", w.Evicted(), w.Len())
	}
	w.CompactNow() // the cut nudged the compactor; let its saves fail too before counting
	failed := w.Stats().ManifestSaveErrors
	if failed == 0 {
		t.Fatal("ManifestSaveErrors = 0 after a retention cut whose manifest save failed")
	}
	log.SetOutput(os.Stderr)
	if lines := uint64(bytes.Count(logged.Bytes(), []byte("manifest save failed"))); lines != failed {
		t.Fatalf("%d failures logged %d times:\n%s", failed, lines, logged.String())
	}
	after, _, err := persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Cuts) != len(before.Cuts) || after.Evictions != before.Evictions {
		t.Fatalf("manifest on disk changed under a failing save: %+v -> %+v", before, after)
	}

	// With the squatter gone the next cut saves, and nothing more is counted.
	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	w.SetRetention(40)
	w.CompactNow()
	if n := w.Stats().ManifestSaveErrors; n != failed {
		t.Fatalf("ManifestSaveErrors went %d -> %d with the directory healthy again", failed, n)
	}
	if m, _, err := persist.LoadManifest(dir); err != nil || m.Evictions <= before.Evictions {
		t.Fatalf("manifest after a healthy cut = %+v (%v), want its eviction recorded", m, err)
	}
}
