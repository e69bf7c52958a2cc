package warehouse

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"streamloader/internal/partial"
	"streamloader/internal/persist"
)

// View checkpoints: a durable warehouse periodically persists each view's
// bucketed partial frames plus each shard's seqHi, a commit cut: the frames
// hold exactly the shard's matching events at or below it. A
// re-registration of the same (query, policy) — a server restart, an SSE
// client reconnecting — hands them to the view handoff (View.install) in
// place of a scan, which folds only the events committed after the cut.
//
// Files live at <dataDir>/views/<fnv64(key)>.ckpt, published like every
// other durable artifact, by persist.PublishFile.
// The file embeds the canonical view key (hash-collision check) and a
// fingerprint of the manifest's cut frontier plus the lifetime eviction
// counter. Any eviction since the checkpoint changes the fingerprint and
// the resume is rejected — the persisted frames would still contain the
// evicted events, and their exact contribution is no longer recoverable.
// The eviction count read with the fingerprint makes install refuse a cut
// that lands mid-resume, and install also refuses a shard below the
// checkpoint's seqHi (a stale or foreign file, or a WAL that lost its tail
// in a crash). Rejection is always safe: the registration rebuilds.
//
// Sources route to shards by a stable hash, so a shard's event set is
// append-only across restarts and "fold everything with seq > SeqHi"
// reconstructs exactly the events the checkpoint has not seen; cold files
// and segments it covers are skipped unread, which makes a resume cheap. A
// view writes checkpoints only while its taps are attached: teardown
// cancels it before detaching them, and writeCheckpoint gives up once the
// view is cancelled, so a late publisher cannot persist frames that stopped
// at the detach beside a SeqHi that kept advancing.

const viewCkptDir = "views"

type viewCkpt struct {
	// Key is the full canonical view key; the file name is only its hash.
	Key string `json:"key"`
	// CutsFP fingerprints the manifest's cut frontier and eviction counter
	// at snapshot time; any eviction since invalidates the checkpoint.
	CutsFP uint64          `json:"cuts_fp"`
	Shards []viewCkptShard `json:"shards"`
}

type viewCkptShard struct {
	// SeqHi is the shard's seq high-water mark the frames cover: every
	// committed event with Seq <= SeqHi is folded in, none above.
	SeqHi  uint64          `json:"seq_hi"`
	Groups []viewCkptGroup `json:"groups,omitempty"`
}

// viewCkptGroup flattens one (frame, group) state. Floats ride as
// strconv 'g' strings so ±Inf (the empty-extremum identity) and NaN
// survive JSON, and the restore is bit-exact.
type viewCkptGroup struct {
	Frame  int64  `json:"frame,omitempty"` // frame start, UnixNano (0: unbucketed)
	Sec    int64  `json:"sec,omitempty"`   // partial.Key time coordinates
	NS     int    `json:"ns,omitempty"`
	Source string `json:"source,omitempty"`
	Theme  string `json:"theme,omitempty"`
	Bucket int64  `json:"bucket,omitempty"` // State.Bucket, UnixNano (0: zero)
	Count  int64  `json:"count"`
	Sum    string `json:"sum"`
	Min    string `json:"min"`
	Max    string `json:"max"`
}

func viewCkptFileName(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x.ckpt", h.Sum64())
}

// cutsFingerprint hashes the manifest state a view checkpoint's validity
// depends on: the cut frontier and the lifetime eviction counter (which
// also advances on degraded evictions that record no cut). Caller holds
// retMu.
func cutsFingerprint(m *persist.Manifest) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "e=%d", m.Evictions)
	for _, c := range m.Cuts {
		fmt.Fprintf(h, "|%d,%d", c.Watermark.Time.UnixNano(), c.Watermark.Seq)
		for _, mk := range c.Marks {
			fmt.Fprintf(h, ";%d,%d,%d", mk.WALFile, mk.WALOff, mk.SegGen)
		}
	}
	return h.Sum64()
}

func fmtCkptFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func nanoOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func timeOrZero(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

func encodeCkptShard(seqHi uint64, st *partial.Store) viewCkptShard {
	sh := viewCkptShard{SeqHi: seqHi}
	st.ForEach(func(start time.Time, k partial.Key, s *partial.State) {
		sh.Groups = append(sh.Groups, viewCkptGroup{
			Frame:  nanoOrZero(start),
			Sec:    k.Sec,
			NS:     k.NS,
			Source: k.Source,
			Theme:  k.Theme,
			Bucket: nanoOrZero(s.Bucket),
			Count:  s.Count,
			Sum:    fmtCkptFloat(s.Sum),
			Min:    fmtCkptFloat(s.Min),
			Max:    fmtCkptFloat(s.Max),
		})
	})
	return sh
}

func decodeCkptShard(width time.Duration, sh viewCkptShard) (*partial.Store, error) {
	st := partial.NewStore(width)
	for _, g := range sh.Groups {
		sum, err := strconv.ParseFloat(g.Sum, 64)
		if err != nil {
			return nil, err
		}
		mn, err := strconv.ParseFloat(g.Min, 64)
		if err != nil {
			return nil, err
		}
		mx, err := strconv.ParseFloat(g.Max, 64)
		if err != nil {
			return nil, err
		}
		k := partial.Key{Sec: g.Sec, NS: g.NS, Source: g.Source, Theme: g.Theme}
		st.Put(k, timeOrZero(g.Frame), &partial.State{
			Bucket: timeOrZero(g.Bucket),
			Count:  g.Count,
			Sum:    sum,
			Min:    mn,
			Max:    mx,
		})
	}
	return st, nil
}

// writeCheckpoint persists the view's current state when it is clean: a
// durable warehouse, checkpoints enabled, the view not stopped, no
// terminal error, no pending rebuild or boundary rescan. Failures are
// silent — a checkpoint is an optimization, never a correctness
// dependency — and a skipped write just means the next registration
// backfills.
func (v *View) writeCheckpoint() {
	w := v.w
	if w.pers == nil || w.viewCkptEvery <= 0 {
		return
	}
	// refreshMu excludes installs, boundary-rescan drains and teardown's
	// detach for the whole write. Without it a concurrent refreshLocked
	// could empty the rescan queue (takeRescans) and be mid-drain —
	// pendingRescans false, frames still stale — while we snapshot.
	v.refreshMu.Lock()
	defer v.refreshMu.Unlock()
	if v.ctx.Err() != nil || v.takeErr() != nil || v.dirty.Load() || v.pendingRescans() {
		return
	}
	ck := viewCkpt{Key: v.key}
	// The fingerprint is read before the shard snapshots: a cut landing in
	// between changes the manifest, so the stale fingerprint makes the
	// checkpoint reject at resume — over-rejection, never a wrong accept.
	w.retMu.Lock()
	ck.CutsFP = cutsFingerprint(&w.pers.manifest)
	w.retMu.Unlock()
	ck.Shards = make([]viewCkptShard, 0, len(w.shards))
	for i, s := range w.shards {
		p := v.parts[i]
		// The read lock excludes commits (the tap fires under the write
		// lock), and seqHi is a commit cut, so the frames hold exactly the
		// events at or below it.
		s.mu.RLock()
		hi := s.seqHi
		p.mu.Lock()
		clone := p.store.Clone()
		p.mu.Unlock()
		s.mu.RUnlock()
		ck.Shards = append(ck.Shards, encodeCkptShard(hi, clone))
	}
	// Re-check after the snapshots. A retention cut can complete entirely
	// between the guard above and the fingerprint read; when its boundary
	// patch degraded to a queued rescan (unknown cold boundary, MIN/MAX)
	// the snapshots then carry the frame drops but not the correction,
	// while the fingerprint is already post-cut — a checkpoint that would
	// wrongly ACCEPT at resume and resurrect evicted events. Such a cut
	// queues the rescan (or sets dirty) before releasing its shard locks,
	// so it is visible here; a cut starting after the snapshots instead
	// changes the manifest, and the stale fingerprint rejects at resume.
	if v.dirty.Load() || v.pendingRescans() {
		return
	}
	if err := writeViewCkptFile(w.pers.dir, v.key, &ck); err == nil {
		w.viewCheckpoints.Add(1)
	}
}

func writeViewCkptFile(dir, key string, ck *viewCkpt) error {
	d := filepath.Join(dir, viewCkptDir)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return persist.PublishFile(filepath.Join(d, viewCkptFileName(key)), data)
}

// readViewCkpt loads the checkpoint for key; (nil, nil) when none exists
// and an error only for a present-but-unreadable file.
func readViewCkpt(dir, key string) (*viewCkpt, error) {
	data, err := os.ReadFile(filepath.Join(dir, viewCkptDir, viewCkptFileName(key)))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ck viewCkpt
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, err
	}
	if ck.Key != key {
		return nil, fmt.Errorf("warehouse: view checkpoint key mismatch (hash collision)")
	}
	return &ck, nil
}

// resumeLocked seeds the view from its checkpoint when one is still valid:
// each shard's frames go to install at the checkpoint's SeqHi. Anything
// short of a full seed — no readable checkpoint, an eviction since it, a
// refused install — leaves the view dirty, and the rebuild replaces every
// store; a resume is strictly an optimization. The caller holds refreshMu.
func (v *View) resumeLocked() {
	w := v.w
	if w.pers == nil || w.viewCkptEvery <= 0 {
		return
	}
	ck, err := readViewCkpt(w.pers.dir, v.key)
	if err != nil || ck == nil || len(ck.Shards) != len(w.shards) {
		return
	}
	w.retMu.Lock()
	fpOK := ck.CutsFP == cutsFingerprint(&w.pers.manifest)
	gen := w.evicted.Load()
	w.retMu.Unlock()
	if !fpOK {
		return
	}
	// Cleared before the installs, like a rebuild's: a cut that marks the
	// view dirty meanwhile keeps its mark.
	v.dirty.Store(false)
	pl := v.plan.scanPlan()
	for i, sh := range ck.Shards {
		st, err := decodeCkptShard(v.plan.Bucket, sh)
		if err == nil {
			err = v.install(&pl, shardCut{shard: i, seqHi: sh.SeqHi, gen: gen}, &aggVisitor{p: &v.plan, store: st},
				func(p *viewPart, fold *aggVisitor) { p.store = fold.store })
		}
		if err != nil {
			v.dirty.Store(true)
			return
		}
	}
	v.mutations.Add(1)
	w.viewResumes.Add(1)
}

// recordViewDef records the view's definition in the manifest, so the
// durable directory is self-describing: which standing queries exist,
// and which checkpoint file belongs to each. Records beyond the cap
// evict oldest-first, deleting the evicted checkpoint with them.
func (w *Warehouse) recordViewDef(v *View) {
	if w.pers == nil {
		return
	}
	rec := persist.ViewRecord{
		Key:    v.key,
		Query:  v.plan.AggQueryValues().Encode(),
		Policy: v.policy.String(),
		File:   viewCkptFileName(v.key),
	}
	w.retMu.Lock()
	changed, evicted := w.pers.manifest.AddView(rec)
	if changed {
		// The record only describes the directory; the view works without
		// it, and saveManifest has counted the failure.
		_ = w.saveManifest()
	}
	w.retMu.Unlock()
	for _, old := range evicted {
		_ = os.Remove(filepath.Join(w.pers.dir, viewCkptDir, old.File))
	}
}
