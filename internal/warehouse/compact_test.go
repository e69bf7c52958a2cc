package warehouse

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/ops"
	"streamloader/internal/persist"
)

// compactCfg makes every spilled file "small" so CompactNow always finds
// mergeable runs: 64-event segments against a 100-event threshold.
func compactCfg(dir string) Config {
	return Config{
		Shards: 1, SegmentEvents: 64, SegmentSpan: 10 * time.Minute,
		DataDir: dir, HotSegments: 1, Sync: persist.SyncNever,
		CompactBelow: 100,
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, _, err := persist.ListSegments(filepath.Join(dir, "shard-000"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func allSeqs(t *testing.T, w *Warehouse) []uint64 {
	t.Helper()
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, len(evs))
	for i, ev := range evs {
		seqs[i] = ev.Seq
	}
	return seqs
}

func sameSeqs(t *testing.T, got, want []uint64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestCompactionMergesColdFiles(t *testing.T) {
	dir := t.TempDir()
	// Build the small-file layout with the compactor disabled: spills
	// nudge the background compactor, so with it live the files can merge
	// before `before` is measured and CompactNow is left nothing to do.
	build := compactCfg(dir)
	build.CompactBelow = -1
	w0, err := Open(build)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewWithConfig(Config{Shards: 1, SegmentEvents: 64, SegmentSpan: 10 * time.Minute})
	tuples := ingestMixed(t, w0, 600)
	if err := mem.AppendBatch(tuples); err != nil {
		t.Fatal(err)
	}
	w0.DrainSpills()
	before := len(segFiles(t, dir))
	if before < 4 {
		t.Fatalf("only %d cold files; test is vacuous", before)
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}

	w, err := Open(compactCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.CompactNow()
	st := w.Stats()
	if st.Compactions == 0 || st.SegmentsCompacted < 2 {
		t.Fatalf("no compactions ran: %+v", st)
	}
	after := len(segFiles(t, dir))
	if after >= before {
		t.Fatalf("cold files %d -> %d, want fewer", before, after)
	}
	if int(st.SegmentsCold) != after {
		t.Fatalf("stats count %d cold segments, disk has %d", st.SegmentsCold, after)
	}
	for _, q := range queriesOver() {
		sameSelect(t, w, mem, q)
	}
	// The swap is durable and leaves no pending manifest record.
	man, _, err := persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Compactions) != 0 {
		t.Fatalf("manifest holds %d stale compaction records", len(man.Compactions))
	}

	// The merged layout must recover.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(compactCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, q := range queriesOver() {
		sameSelect(t, re, mem, q)
	}
}

// buildCompactionCrash prepares a store that "crashed" mid-compaction: two
// cold files merged into a published higher-generation file, optionally
// with the manifest record written and victim deletions partially applied.
// Returns the data dir and the expected event seqs.
func buildCompactionCrash(t *testing.T, record bool, deleteVictims int) (string, []uint64) {
	t.Helper()
	dir := t.TempDir()
	cfg := compactCfg(dir)
	cfg.CompactBelow = -1 // build the layout by hand below
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, w, 400)
	w.DrainSpills()
	want := allSeqs(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	paths := segFiles(t, dir)
	if len(paths) < 2 {
		t.Fatalf("only %d cold files", len(paths))
	}
	victims := paths[:2]
	var merged []persist.Event
	var oldGens []int
	for _, p := range victims {
		info, _, err := persist.OpenSegment(p)
		if err != nil {
			t.Fatal(err)
		}
		evs, _, err := info.ReadRangeProjected(nil, 0, info.Count, persist.FullProjection)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, evs...)
		gen, err := persist.ParseSegmentFileName(filepath.Base(p))
		if err != nil {
			t.Fatal(err)
		}
		oldGens = append(oldGens, gen)
	}
	persist.SortEvents(merged)
	_, newGen, err := persist.ListSegments(filepath.Join(dir, "shard-000"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.WriteSegment(filepath.Join(dir, "shard-000", persist.SegmentFileName(newGen)), merged); err != nil {
		t.Fatal(err)
	}
	if record {
		man, _, err := persist.LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		man.Compactions = append(man.Compactions, persist.CompactionRecord{
			Shard: 0, NewGen: newGen, OldGens: oldGens,
		})
		if err := persist.SaveManifest(dir, man); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range victims[:deleteVictims] {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	return dir, want
}

// TestCompactionCrashRecovery drives recovery through every crash window of
// a compaction: before the manifest record (the merged file must be undone
// as a duplicate), after the record with victims intact, and after the
// record with deletions half done. All three must recover the exact event
// set, and a second reopen must be a no-op.
func TestCompactionCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		name          string
		record        bool
		deleteVictims int
		// mergedSurvives: with the record durable the merged file is the
		// authority; without it, recovery deletes it as a duplicate.
		mergedSurvives bool
	}{
		{"no record", false, 0, false},
		{"record, victims intact", true, 0, true},
		{"record, partially deleted", true, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, want := buildCompactionCrash(t, tc.record, tc.deleteVictims)
			preOpen := segFiles(t, dir)
			cfg := compactCfg(dir)
			cfg.CompactBelow = -1
			w, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameSeqs(t, allSeqs(t, w), want, "after recovery")
			if n := w.Len(); n != len(want) {
				t.Fatalf("Len = %d, want %d", n, len(want))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			postOpen := segFiles(t, dir)
			if len(postOpen) >= len(preOpen) {
				t.Fatalf("recovery kept all %d files; must delete the duplicate side", len(preOpen))
			}
			man, _, err := persist.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Compactions) != 0 {
				t.Fatalf("manifest still holds compaction records: %+v", man.Compactions)
			}
			if tc.mergedSurvives {
				// Every victim must be gone; the merged file carries them.
				for _, p := range preOpen[:2-tc.deleteVictims] {
					if _, err := os.Stat(p); !os.IsNotExist(err) {
						t.Fatalf("victim %s survived recovery (err=%v)", p, err)
					}
				}
			}
			// Recovery is idempotent: a second reopen changes nothing.
			re, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameSeqs(t, allSeqs(t, re), want, "after second recovery")
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompactionSurvivesCrashAfterSwap: a hard close (simulated crash)
// immediately after CompactNow must recover the merged layout exactly.
func TestCompactionSurvivesCrashAfterSwap(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(compactCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, w, 600)
	w.DrainSpills()
	w.CompactNow()
	if w.Stats().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	want := allSeqs(t, w)
	spilled := w.Stats().SegmentsCold
	w.CloseHard()

	re, err := Open(compactCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.DrainSpills()
	sameSeqs(t, allSeqs(t, re), want, "after crash")
	if re.Stats().SegmentsCold < spilled {
		t.Fatalf("cold segments %d, had %d before crash", re.Stats().SegmentsCold, spilled)
	}
}

func TestOpenFailsOnCorruptSegmentName(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(compactCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, w, 200)
	w.DrainSpills()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The old recovery parsed "seg-7junk.seg" with Sscanf, silently read
	// gen 7, and mis-scoped retention watermarks; now Open refuses.
	junk := filepath.Join(dir, "shard-000", "seg-7junk.seg")
	if err := os.WriteFile(junk, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(compactCfg(dir)); err == nil {
		t.Fatal("open must fail on a corrupt segment file name")
	}
	if err := os.Remove(junk); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(compactCfg(dir))
	if err != nil {
		t.Fatalf("open after removing junk: %v", err)
	}
	w2.Close()
}

// TestCompactionRespectsDisable: CompactBelow < 0 turns the compactor off.
func TestCompactionRespectsDisable(t *testing.T) {
	dir := t.TempDir()
	cfg := compactCfg(dir)
	cfg.CompactBelow = -1
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ingestMixed(t, w, 400)
	w.DrainSpills()
	before := len(segFiles(t, dir))
	w.CompactNow()
	if w.Stats().Compactions != 0 || len(segFiles(t, dir)) != before {
		t.Fatalf("disabled compactor still ran: %+v", w.Stats())
	}
}

// plantOldFormatFiles copies the persist package's v1 and v2 fixture files
// into a fresh one-shard data dir, as generations 1 and 2, and returns the
// naive model holding their events. The events are read back through
// persist, whose own fixture test pins them to the regenerated corpus; the
// seqs start at one and two million, so everything the store then ingests
// sorts after them.
func plantOldFormatFiles(t *testing.T, dir string) *refModel {
	t.Helper()
	shardDir := filepath.Join(dir, "shard-000")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	m := &refModel{}
	for i, name := range []string{"seg-v1.seg", "seg-v2.seg"} {
		raw, err := os.ReadFile(filepath.Join("..", "persist", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(shardDir, persist.SegmentFileName(i+1))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		info, _, err := persist.OpenSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != i+1 {
			t.Fatalf("%s is v%d, want v%d", name, info.Version, i+1)
		}
		pes, _, err := info.ReadRangeProjected(nil, 0, info.Count, persist.FullProjection)
		if err != nil {
			t.Fatal(err)
		}
		for _, pe := range pes {
			m.events = append(m.events, Event(pe))
			m.nextSeq = max(m.nextSeq, pe.Seq+1)
		}
	}
	return m
}

// segVersions counts the shard's cold files by format version.
func segVersions(t *testing.T, dir string) map[int]int {
	t.Helper()
	versions := map[int]int{}
	for _, path := range segFiles(t, dir) {
		info, _, err := persist.OpenSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		versions[info.Version]++
	}
	return versions
}

// requireEqualsModel checks Select, Count and Aggregate against the naive
// model over a query mix that reaches both fixture files (the v1 file spans
// [t0, t0+531s), the v2 file the same stretch an hour later) and whatever
// was ingested beside them: whole-store, windows cutting each file mid
// chunk, every filter kind, and aggregates the header, the chunk stats, a
// projected read or only a full decode can answer.
func requireEqualsModel(t *testing.T, w *Warehouse, m *refModel, when string) {
	t.Helper()
	ctx := context.Background()
	region := geo.NewRect(geo.Point{Lat: 34.4, Lon: 135.2}, geo.Point{Lat: 34.75, Lon: 135.55})
	inV1 := Query{From: t0.Add(100 * time.Second), To: t0.Add(520 * time.Second)}
	inV2 := Query{From: t0.Add(time.Hour + 100*time.Second), To: t0.Add(time.Hour + 520*time.Second)}
	for _, q := range []Query{
		{}, inV1, inV2,
		{Sources: []string{"st-1", "kyoto"}},
		{Themes: []string{"test"}},
		{Themes: []string{"weather"}, From: inV1.From, To: inV2.To},
		{Region: &region},
		{Cond: "temperature > 20"},
		{From: t0, To: t0.Add(24 * time.Hour), Limit: 25},
	} {
		got, _, err := w.Select(ctx, q)
		if err != nil {
			t.Fatalf("%s: select %s: %v", when, queryString(q), err)
		}
		want := m.selectQ(q)
		if diff := diffEvents(got, want); diff != "" {
			t.Fatalf("%s: select %s: %s", when, queryString(q), diff)
		}
		n, _, err := w.Count(ctx, q)
		if err != nil || n != len(want) {
			t.Fatalf("%s: count %s = %d, %v; model %d", when, queryString(q), n, err, len(want))
		}
	}
	for _, aq := range []AggQuery{
		{Func: ops.AggCount},
		{Func: ops.AggCount, GroupBy: []string{"source"}},
		{Func: ops.AggCount, GroupBy: []string{"theme"}, Bucket: time.Hour},
		{Func: ops.AggSum, Field: "temperature", Query: inV1},
		{Func: ops.AggSum, Field: "temperature", Query: inV2},
		{Func: ops.AggAvg, Field: "temperature", GroupBy: []string{"source"}},
		{Func: ops.AggMin, Field: "i", Query: Query{Themes: []string{"test"}}},
		{Func: ops.AggMax, Field: "temperature", Query: Query{Cond: "temperature > 20"}},
	} {
		got, _, err := w.Aggregate(ctx, aq)
		if err != nil {
			t.Fatalf("%s: aggregate %s: %v", when, aggString(aq), err)
		}
		if diff := diffAggRows(got, m.aggregate(aq, time.Time{})); diff != "" {
			t.Fatalf("%s: aggregate %s: %s", when, aggString(aq), diff)
		}
	}
}

// TestOldFormatFilesConverge: a store holding a v1 and a v2 cold file — what
// an older build left behind — answers every query like the naive model
// while this build spills v3 files beside them, and its compactor rewrites
// both to v3 with no command, flag or config field: Open enqueues every
// shard, and a file below the current version is a rewrite candidate on its
// own. Results hold before, during and after the rewrite, across a clean
// reopen, a crash in the middle of it, and a crash that left a rewritten
// file published but unrecorded.
func TestOldFormatFilesConverge(t *testing.T) {
	dir := t.TempDir()
	m := plantOldFormatFiles(t, dir)
	planted := len(m.events)

	// Before: compaction off, so the old files stay while v3 files land
	// beside them.
	build := compactCfg(dir)
	build.CompactBelow = -1
	w, err := Open(build)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != planted {
		t.Fatalf("recovered %d events from the planted files, want %d", w.Len(), planted)
	}
	for i := 0; i < 300; i++ {
		tup := wTuple(10*time.Hour+time.Duration(i)*time.Minute, float64(i%35),
			[]string{"umeda", "namba", "kyoto", "sakai"}[i%4], 34.4+float64(i%40)*0.01, 135.2+float64(i%40)*0.01)
		if err := w.Append(tup); err != nil {
			t.Fatal(err)
		}
		m.append(tup)
	}
	w.DrainSpills()
	requireEqualsModel(t, w, m, "mixed formats, compaction off")
	w.CompactNow() // disabled: a no-op
	if v := segVersions(t, dir); v[persist.SegmentV1] != 1 || v[persist.SegmentV2] != 1 || v[persist.SegmentV3] == 0 {
		t.Fatalf("file versions %v, want the two planted files untouched beside v3 spills", v)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-convergence: Open starts the rewrites and CloseHard cuts
	// them off wherever they are. The next Open starts them again, and the
	// queries that follow it run beside them.
	w, err = Open(compactCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	w.CloseHard()
	rewrites := w.Stats().Compactions
	w, err = Open(compactCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualsModel(t, w, m, "during convergence, after a crash in it")
	w.CompactNow()
	if v := segVersions(t, dir); len(v) != 1 || v[persist.SegmentV3] == 0 {
		t.Fatalf("file versions after convergence %v, want v3 only", v)
	}
	if rewrites += w.Stats().Compactions; rewrites == 0 {
		t.Fatal("the files converged without a compaction")
	}
	requireEqualsModel(t, w, m, "converged")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(compactCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireEqualsModel(t, re, m, "converged, reopened")
}

// TestOldFormatRewriteCrashWindows drives recovery through the crash
// windows of a one-file format rewrite, which uses the merge's protocol
// with a single victim: the v3 copy published but not yet recorded (it is a
// duplicate, recovery deletes it and the compactor starts over), and
// recorded with the victim still on disk (the victim goes).
func TestOldFormatRewriteCrashWindows(t *testing.T) {
	for _, record := range []bool{false, true} {
		dir := t.TempDir()
		m := plantOldFormatFiles(t, dir)
		victim := filepath.Join(dir, "shard-000", persist.SegmentFileName(1))
		info, _, err := persist.OpenSegment(victim)
		if err != nil {
			t.Fatal(err)
		}
		pes, _, err := info.ReadRangeProjected(nil, 0, info.Count, persist.FullProjection)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := persist.WriteSegment(filepath.Join(dir, "shard-000", persist.SegmentFileName(3)), pes); err != nil {
			t.Fatal(err)
		}
		if record {
			man := persist.Manifest{Version: 1, Shards: 1}
			man.Compactions = []persist.CompactionRecord{{Shard: 0, NewGen: 3, OldGens: []int{1}}}
			if err := persist.SaveManifest(dir, man); err != nil {
				t.Fatal(err)
			}
		}
		w, err := Open(compactCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() != len(m.events) {
			t.Fatalf("record=%v: Len = %d, want %d (the rewritten file counted once)", record, w.Len(), len(m.events))
		}
		w.CompactNow()
		requireEqualsModel(t, w, m, fmt.Sprintf("record=%v", record))
		if v := segVersions(t, dir); len(v) != 1 || v[persist.SegmentV3] != 2 {
			t.Fatalf("record=%v: file versions %v, want two v3 files", record, v)
		}
		if st := w.Stats(); st.Compactions == 0 {
			t.Fatalf("record=%v: no compaction ran: %+v", record, st)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
