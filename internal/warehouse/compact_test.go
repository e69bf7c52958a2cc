package warehouse

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamloader/internal/persist"
	"streamloader/internal/stt"
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

// TestCompactionLeavesInOrderFilesAlone: an in-order ingest shaped like the
// bench's (its fleet at 50 Hz, 16 shards, two hot segments, 17 minutes)
// spills full-size files whose (time, seq) envelopes never overlap, though
// each shares its boundary minute with its neighbour. None of them is
// worth a rewrite. A picker that compared event times alone merged 82 of
// the 83 files, in 41 compactions.
func TestCompactionLeavesInOrderFilesAlone(t *testing.T) {
	w, err := Open(Config{Shards: 16, HotSegments: 2, DataDir: t.TempDir(), Sync: persist.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendBenchShaped(t, w, 50, 17)
	w.DrainSpills()
	w.CompactNow()
	st := w.Stats()
	if st.SegmentsSpilled < 64 {
		t.Fatalf("only %d files spilled; test is vacuous", st.SegmentsSpilled)
	}
	if st.Compactions != 0 || st.SegmentsCompacted != 0 {
		t.Fatalf("%d compactions rewrote %d of %d in-order files, want none",
			st.Compactions, st.SegmentsCompacted, st.SegmentsSpilled)
	}
}

// TestCompactionMergesKeyOverlap: two full-size files whose (time, seq)
// envelopes overlap are still merged. A straggler batch spills as a side
// file inside its neighbour's span, and the compactor folds the two into
// one file in key order.
func TestCompactionMergesKeyOverlap(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 1, SegmentEvents: 64, SegmentSpan: 24 * time.Hour,
		DataDir: dir, HotSegments: 1, Sync: persist.SyncNever, CompactBelow: 8,
	}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mem := NewWithConfig(Config{Shards: 1, SegmentEvents: 64, SegmentSpan: 24 * time.Hour})
	// Three full in-order segments over minutes 0-191, then a full
	// straggler batch inside the first one's span, then a fourth in-order
	// segment, which pushes the straggler's side segment out to disk.
	inOrder := func(from, n int) []*stt.Tuple {
		var ts []*stt.Tuple
		for i := from; i < from+n; i++ {
			ts = append(ts, wTuple(time.Duration(i)*time.Minute, 20, "s", 34.7, 135.5))
		}
		return ts
	}
	var late []*stt.Tuple
	for i := 0; i < 64; i++ {
		late = append(late, wTuple(time.Duration(i)*time.Minute+30*time.Second, 21, "late", 34.7, 135.5))
	}
	for _, batch := range [][]*stt.Tuple{inOrder(0, 3*64), late, inOrder(3*64, 64)} {
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := mem.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		w.DrainSpills()
	}
	w.CompactNow()
	st := w.Stats()
	if st.SegmentsSpilled < 4 {
		t.Fatalf("only %d files spilled; test is vacuous", st.SegmentsSpilled)
	}
	if st.Compactions != 1 || st.SegmentsCompacted != 2 {
		t.Fatalf("compactions %d merged %d files, want the straggler file and its neighbour merged once",
			st.Compactions, st.SegmentsCompacted)
	}
	for _, q := range queriesOver() {
		sameSelect(t, w, mem, q)
	}
}
