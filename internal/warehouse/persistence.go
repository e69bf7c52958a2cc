package warehouse

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"streamloader/internal/persist"
)

// Open creates or recovers a warehouse. With no DataDir it is
// NewWithConfig: a pure in-memory store, and every other persistence field
// is ignored. With a DataDir it builds the durable warehouse: per-shard
// WALs on the append path, spill-to-disk for cold segments, and — when the
// directory already holds a previous incarnation — recovery:
//
//  1. spilled segment files are re-registered from their headers (no event
//     payloads are read), with files wholly below the retention watermark
//     deleted and the one straddling it re-trimmed;
//  2. the WAL tail is replayed into fresh hot segments, skipping events
//     already present in spilled files or below the watermark, truncating
//     any torn tail; and
//  3. appends resume in a fresh WAL file with the sequence counter past
//     everything recovered.
//
// The manifest pins the shard count: a cfg.Shards that disagrees with an
// existing directory is overridden, so spilled files stay on the shard
// whose WAL wrote them.
func Open(cfg Config) (*Warehouse, error) {
	if cfg.DataDir == "" {
		return NewWithConfig(cfg), nil
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("warehouse: open: %w", err)
	}
	man, found, err := persist.LoadManifest(cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("warehouse: open: %w", err)
	}
	if found && man.Shards > 0 {
		cfg.Shards = man.Shards
	}
	w := NewWithConfig(cfg)
	if !found {
		man = persist.Manifest{Version: 1, Shards: len(w.shards)}
		if err := persist.SaveManifest(cfg.DataDir, man); err != nil {
			return nil, fmt.Errorf("warehouse: open: %w", err)
		}
	}
	// Finish any file compaction a crash interrupted, before recovery
	// registers segments. A CompactionRecord is written only after its
	// merged file is durable, so if the record is here the victims it
	// replaced must go — the deletions are idempotent, so replaying them
	// after a crash mid-delete is safe. A published merged file with no
	// record is handled later by recovery's duplicate-seq sweep instead.
	if len(man.Compactions) > 0 {
		for _, rec := range man.Compactions {
			dir := filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%03d", rec.Shard))
			if _, err := os.Stat(filepath.Join(dir, persist.SegmentFileName(rec.NewGen))); err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return nil, fmt.Errorf("warehouse: open: %w", err)
			}
			for _, g := range rec.OldGens {
				old := filepath.Join(dir, persist.SegmentFileName(g))
				if err := os.Remove(old); err != nil && !os.IsNotExist(err) {
					return nil, fmt.Errorf("warehouse: open: %w", err)
				}
			}
		}
		man.Compactions = nil
		if err := persist.SaveManifest(cfg.DataDir, man); err != nil {
			return nil, fmt.Errorf("warehouse: open: %w", err)
		}
	}
	w.pers = &persistState{dir: cfg.DataDir, manifest: man}

	cacheBytes := cfg.ColdCacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultColdCacheBytes
	}
	w.coldCache = persist.NewChunkCache(cacheBytes) // nil when disabled
	w.spill = newWorker(w.spillOne)
	segEvents := cfg.SegmentEvents
	if segEvents < 1 {
		segEvents = DefaultSegmentEvents
	}
	compactBelow := cfg.CompactBelow
	if compactBelow == 0 {
		compactBelow = segEvents / 2
	}
	if compactBelow > 0 {
		w.compact = newCompactor(w, compactBelow, segEvents)
	}

	hotSegments := cfg.HotSegments
	if hotSegments == 0 {
		hotSegments = DefaultHotSegments
	}
	walOpts := persist.WALOptions{
		Sync:         cfg.Sync,
		SegmentBytes: cfg.WALBytes,
		WriteHist:    w.met.walWrite,
		SyncHist:     w.met.walSync,
	}

	var maxSeq uint64
	var anySeq bool
	total := 0
	lastMarks := man.LastMarks()
	for i, s := range w.shards {
		s.dir = filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%03d", i))
		s.hotSegments = hotSegments
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			w.CloseHard()
			return nil, fmt.Errorf("warehouse: open: %w", err)
		}
		var lastMark persist.ShardMark
		if i < len(lastMarks) {
			lastMark = lastMarks[i]
		}
		seqMax, any, err := w.recoverShard(s, man.Cuts, i)
		if err != nil {
			w.CloseHard()
			return nil, err
		}
		if any && (!anySeq || seqMax > maxSeq) {
			maxSeq = seqMax
		}
		anySeq = anySeq || any
		shardOpts := walOpts
		// Never fall back behind the newest mark: a reused WAL file number
		// or segment generation would make fresh records look older than
		// the last compaction and expose them to its watermark.
		shardOpts.MinFile = lastMark.WALFile + 1
		if s.nextSegGen < lastMark.SegGen {
			s.nextSegGen = lastMark.SegGen
		}
		wal, err := persist.OpenWAL(s.dir, shardOpts, s.walFiles)
		s.walFiles = nil
		if err != nil {
			w.CloseHard()
			return nil, fmt.Errorf("warehouse: open wal: %w", err)
		}
		s.wal = wal
		// Durable mode spills via the post-commit tap; in-memory warehouses
		// never attach it.
		s.attachTapLocked(spillTap{})
		// Replay may have rebuilt more hot segments than the budget allows;
		// queue them for the background spiller (it starts below, so the
		// backlog drains once the shards are consistent), and checkpoint log
		// files made wholly obsolete by pre-crash spills.
		s.maybeSpillLocked(w)
		s.wal.DropObsolete(s.minLiveSeqLocked())
		total += s.count
	}
	if anySeq {
		w.nextID.Store(maxSeq + 1)
	}
	// Surviving events alone can under-estimate the counter: the highest
	// seq may have been spilled, WAL-checkpointed, then deleted wholesale
	// by a retention cut before the crash. The manifest's high-water mark
	// covers those, and re-stamping it now makes this incarnation's
	// recovery-time file deletions equally crash-proof.
	// MaxSeq == 0 is "never stamped", not "seq 0 assigned" — the one-event
	// store it could misread recovers seq 0 from its WAL or file anyway.
	if hw := w.pers.manifest.MaxSeq; hw > 0 && w.nextID.Load() < hw+1 {
		w.nextID.Store(hw + 1)
	}
	if next := w.nextID.Load(); next > 0 && w.pers.manifest.MaxSeq < next-1 {
		if err := w.saveManifest(); err != nil {
			w.CloseHard()
			return nil, fmt.Errorf("warehouse: open: %w", err)
		}
	}
	w.count.Store(int64(total))
	if cfg.Sync == persist.SyncInterval {
		every := cfg.SyncEvery
		if every <= 0 {
			every = persist.DefaultSyncEvery
		}
		w.startWALSyncer(every)
	}
	w.spill.start()
	if w.compact != nil {
		w.compact.start()
		// Recovery can leave shards littered with small or overlapping
		// files (crash-orphaned side spills, re-trimmed stragglers); give
		// every shard an initial compaction check.
		for _, s := range w.shards {
			w.compact.enqueue(s)
		}
	}
	return w, nil
}

// recoverShard rebuilds one shard from its directory: cold segment files
// first, then the WAL tail. Each retention cut is applied only to state the
// recording compaction could see (WAL records and spill files before that
// cut's shard mark); anything newer is live by definition, straggler or
// not — the effective watermark for a file or log position is the highest
// one among the cuts that saw it. It returns the highest warehouse seq it
// saw and whether it saw any. Runs before the shard is shared, so no
// locking.
func (w *Warehouse) recoverShard(s *shard, cuts []persist.Cut, shardIdx int) (uint64, bool, error) {
	// fileCut/walCut resolve the effective watermark covering a segment
	// file generation / WAL position on this shard.
	fileCut := func(gen int) persist.Key {
		var k persist.Key
		for _, c := range cuts {
			if gen < c.Mark(shardIdx).SegGen && k.Less(c.Watermark) {
				k = c.Watermark
			}
		}
		return k
	}
	walCut := func(pos persist.Pos) persist.Key {
		var k persist.Key
		for _, c := range cuts {
			if c.Mark(shardIdx).Covers(pos) && k.Less(c.Watermark) {
				k = c.Watermark
			}
		}
		return k
	}

	segPaths, nextGen, err := persist.ListSegments(s.dir)
	if err != nil {
		return 0, false, fmt.Errorf("warehouse: recover: %w", err)
	}
	s.nextSegGen = nextGen

	var maxSeq uint64
	var anySeq bool
	note := func(seq uint64) {
		if !anySeq || seq > maxSeq {
			maxSeq = seq
		}
		anySeq = true
	}

	// Seqs already durable in segment files; WAL records carrying them are
	// duplicates and must not replay.
	spilled := map[uint64]struct{}{}
	for _, path := range segPaths {
		info, seqs, err := persist.OpenSegment(path)
		if err != nil {
			return 0, false, fmt.Errorf("warehouse: recover: %w", err)
		}
		// A crash between a background spill's file write and its swap can
		// leave a segment's file published while the segment also stays in
		// memory — and a later spill attempt (or the next incarnation's)
		// can then publish a second snapshot of the same segment. Files
		// arrive here in generation order and a later snapshot is always a
		// subset of an earlier one (sealed segments only shrink, via
		// retention trims that the earlier file's watermark re-trim
		// reproduces), so a file whose every seq is already registered is a
		// stale duplicate: delete it rather than double-count its events.
		if dupFile(spilled, seqs) {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return 0, false, fmt.Errorf("warehouse: recover: %w", err)
			}
			continue
		}
		// The seqs join the dedup set only once this file's own fate is
		// decided (the survivor-dup sweep below must compare against
		// earlier files, not the file itself); deleted files' seqs still
		// join it — their WAL records must not replay, and later raw-seq
		// subsets of them are still duplicates.
		registerSeqs := func() {
			for _, seq := range seqs {
				spilled[seq] = struct{}{}
			}
		}
		var fileSeqHi uint64
		for _, seq := range seqs {
			note(seq)
			if seq > fileSeqHi {
				fileSeqHi = seq
			}
		}
		gen, err := persist.ParseSegmentFileName(filepath.Base(path))
		if err != nil {
			// ListSegments vets names, so this is unreachable — but a wrong
			// generation here silently mis-scopes retention watermarks, so
			// fail recovery loudly rather than guess.
			return 0, false, fmt.Errorf("warehouse: recover: %w", err)
		}
		// Files spilled after a cut's compaction hold only survivors and
		// later arrivals; that cut does not apply to them. The watermark
		// here is the highest among the cuts that saw this generation.
		watermark := fileCut(gen)
		cutApplies := !watermark.IsZero()
		if cutApplies && keyLE(info.Tail, watermark) {
			// Every event is below the retention cut: the pre-crash
			// compaction meant to delete this file (or already tried).
			registerSeqs()
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return 0, false, fmt.Errorf("warehouse: recover: %w", err)
			}
			continue
		}
		cs := w.newColdSegment(info, fileSeqHi)
		if cutApplies && keyLE(info.Head, watermark) {
			// The file straddles the cut: re-apply the logical trim the
			// pre-crash compaction performed.
			live, err := cs.live()
			if err != nil {
				return 0, false, fmt.Errorf("warehouse: recover: %w", err)
			}
			n := 0
			for n < len(live) && keyLE(eventKey(live[n]), watermark) {
				n++
			}
			// A merged file a crashed cold-file compaction published but
			// never swapped in escapes the raw-seq duplicate sweep above
			// when a retention cut deleted one of its victims' files
			// outright: the dead victim's seqs exist nowhere else, so the
			// merged file is no longer a raw-seq subset. After the
			// watermark re-trim, though, those seqs are gone and every
			// survivor it still holds is exactly a surviving victim's live
			// event — already registered. Registering such a file would
			// double-count the survivors; it contributes nothing live, so
			// delete it instead.
			if n > 0 && dupSuffix(spilled, live[n:]) {
				registerSeqs()
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					return 0, false, fmt.Errorf("warehouse: recover: %w", err)
				}
				continue
			}
			if n > 0 {
				// n < len(live): the tail is above the watermark.
				cs = cs.trimmed(live, n)
			}
		}
		registerSeqs()
		s.cold = append(s.cold, cs)
		s.count += cs.count
		for src, n := range cs.sourceCounts {
			s.sources[src] += n
		}
		if cs.tail.Time.After(s.sealBound) {
			// Keep straggler routing sane: events older than spilled
			// history are out-of-order and should not stretch fresh hot
			// segments' envelopes. The bound is a time (appendLocked).
			s.sealBound = cs.tail.Time
		}
		w.coldBytes.Add(info.Bytes)
		w.recovered.Add(uint64(cs.count))
	}

	res, err := persist.ReplayWAL(s.dir, func(ev Event, pos persist.Pos) error {
		note(ev.Seq)
		if _, dup := spilled[ev.Seq]; dup {
			return nil
		}
		if wm := walCut(pos); !wm.IsZero() && keyLE(eventKey(ev), wm) {
			return nil
		}
		s.appendLocked(ev)
		w.recovered.Add(1)
		return nil
	})
	if err != nil {
		return 0, false, fmt.Errorf("warehouse: replay: %w", err)
	}
	s.walFiles = res.Files
	// Seqs registered from cold files bypass appendLocked; settle the
	// shard's cut past everything this shard has seen.
	if anySeq && maxSeq >= s.seqNext {
		s.seqNext = maxSeq + 1
	}
	return maxSeq, anySeq, nil
}

// saveManifest is the one manifest save once Open has built w.pers. It folds
// the current seq high-water mark into the manifest first, so sequences
// assigned before this save can never be reissued by a later recovery — even
// when a retention cut erases the last trace of the events that carried them
// (monotone, so a stale re-stamp is harmless) — then publishes it. A nil
// return means the manifest is on disk. A failure is logged and counted in
// Stats.ManifestSaveErrors here, so a caller whose decision is to carry on
// regardless drops nothing silently. Caller holds retMu: every post-Open
// manifest mutation is serialized under it.
func (w *Warehouse) saveManifest() error {
	if next := w.nextID.Load(); next > 0 && w.pers.manifest.MaxSeq < next-1 {
		w.pers.manifest.MaxSeq = next - 1
	}
	err := persist.SaveManifest(w.pers.dir, w.pers.manifest)
	if err != nil {
		w.manifestSaveErrors.Add(1)
		log.Printf("warehouse: manifest save failed: %v", err)
	}
	return err
}

// dupFile reports whether every seq of a segment file is already durable in
// an earlier-generation file.
func dupFile(spilled map[uint64]struct{}, seqs []uint64) bool {
	if len(seqs) == 0 {
		return false
	}
	for _, seq := range seqs {
		if _, ok := spilled[seq]; !ok {
			return false
		}
	}
	return true
}

// dupSuffix is dupFile over the events surviving a watermark re-trim: true
// when every one of them is already registered from an earlier file, so the
// file holds nothing live of its own.
func dupSuffix(spilled map[uint64]struct{}, survivors []Event) bool {
	if len(survivors) == 0 {
		return false
	}
	for _, ev := range survivors {
		if _, ok := spilled[ev.Seq]; !ok {
			return false
		}
	}
	return true
}

// Close drains the background spill queue — every pending segment reaches
// its file — then flushes and closes every shard's WAL. The warehouse stays
// queryable, but further appends fail. A nil receiver or an in-memory
// warehouse closes trivially.
func (w *Warehouse) Close() error {
	if w == nil {
		return nil
	}
	// Views close for in-memory warehouses too: their publisher goroutines
	// must not outlive the store. A clean close persists each view's final
	// checkpoint so the next Open's registrations resume from it.
	w.closeViews(true)
	if w.pers == nil {
		return nil
	}
	w.spill.close()
	if w.compact != nil {
		// After the spill queue drains; a final spill can enqueue one more
		// compaction check. Runs before the WALs close, but compactions
		// never touch the WAL.
		w.compact.close()
	}
	w.stopWALSyncer()
	var first error
	for _, s := range w.shards {
		s.mu.Lock()
		if s.wal != nil {
			if err := s.wal.Close(); err != nil && first == nil {
				first = err
			}
		}
		s.mu.Unlock()
	}
	return first
}

// CloseHard closes every WAL file descriptor without flushing, simulating
// a crash: anything the OS has not been handed is lost, exactly as if the
// process had been killed. The background spiller is cut off the same way
// — queued spills are dropped, and an in-flight one may leave its segment
// file published but never swapped in, which recovery dedupes. For
// recovery testing.
func (w *Warehouse) CloseHard() {
	if w == nil {
		return
	}
	// A crash kills view goroutines with the process; here they must stop
	// explicitly. No final checkpoint is written — a kill would not have
	// written one either — so recovery exercises the stale-checkpoint and
	// backfill paths, not an artificially clean shutdown.
	w.closeViews(false)
	if w.pers == nil {
		return
	}
	w.spill.abort()
	if w.compact != nil {
		// Before taking shard locks below: abort waits for the worker, and
		// an in-flight compaction may need a shard lock to finish its step.
		w.compact.abort()
	}
	w.stopWALSyncer()
	for _, s := range w.shards {
		s.mu.Lock()
		if s.wal != nil {
			s.wal.CloseHard()
		}
		s.mu.Unlock()
	}
}
