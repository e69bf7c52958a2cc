// Package persist is the durable storage layer under the Event Data
// Warehouse: a per-shard write-ahead log so acked events survive a crash,
// immutable on-disk segment files that cold warehouse segments spill into,
// and a small manifest carrying the state recovery needs (shard count and
// the retention cut frontier).
//
// The package deliberately knows nothing about shards, indexes or queries —
// it moves (sequence, tuple) pairs between memory and disk with integrity
// checks, and leaves placement and semantics to the warehouse.
//
// # One publish
//
// The log is appended to; every other file is replaced whole, by
// PublishFile (publish.go): write a temp file, fsync it, rename it over the
// target, fsync the directory. That is the write→validate→swap discipline's
// one implementation. WriteSegment, SaveManifest and the warehouse's view
// checkpoints all end in it, it holds the only rename in the program, and a
// nil return from any of them means the new content survives a crash.
//
// # Write-ahead log
//
// A WAL is a directory of numbered append-only files. Every append frames
// one record — a schema definition or a batch of events — as
// [length][CRC32C][payload], buffered into a single write(2) so an acked
// batch is in the kernel even under SyncNever. Fsync is governed by
// SyncPolicy: SyncAlways syncs once per append (batch-coalesced), before it
// returns; under the default SyncInterval an append only marks the file, and
// the owner's SyncDirty call, a period later, syncs it, beside later appends
// and with none of the owner's locks held; SyncNever leaves flushing to the
// OS. A failed fsync of acked appends is sticky: the kernel may have dropped
// their pages, so every later append fails rather than be acked past it.
// Files rotate at SegmentBytes; each fresh file re-states every known schema
// definition so any file can be decoded after its predecessors are
// checkpointed away.
//
// Replay walks the files in order and stops a file at the first frame whose
// length or checksum does not hold, truncating the torn tail so the next
// writer starts from a clean boundary. Records for events that are already
// durable elsewhere are the caller's business: replay hands over every
// record and the warehouse filters against its spilled segments and the
// retention watermark.
//
// # Segment files
//
// A segment file stores one sealed warehouse segment: a JSON header (event
// count, time envelope, head/tail keys, per-source and per-theme counts,
// schema dictionary, sparse index with per-chunk stats), the sequence
// numbers of every event, then the events themselves in (time, seq) order,
// in column-encoded chunks. The seq block lets recovery dedupe WAL records
// against spilled files without decoding any event payload; the sparse
// index maps every IndexEvery-th event to its byte offset so a time-window
// read decodes only the overlapping stretch. There is one format
// (segment.go has the layout); a file in either format older builds wrote is
// refused at OpenSegment. Segment files are immutable: retention removes them whole, and partial
// eviction is a logical skip re-derivable from the manifest's cuts.
//
// # Retention cuts
//
// The manifest records evictions as a frontier of Cuts, each pairing one
// compaction's watermark — the highest (time, seq) key it evicted — with
// the per-shard WAL positions and segment generations it saw. Recovery
// suppresses an event when any cut both saw it and covers its key. The
// pairing matters: a compaction that runs after deep stragglers arrived
// may evict up to a lower watermark than an earlier cut's, and those
// stragglers must survive recovery even though they sit below the older
// watermark — so the older watermark stays scoped to the older marks
// instead of being re-issued against newer ones.
package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streamloader/internal/stt"
)

// SyncPolicy says when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncInterval (the default) leaves fsync off the append path: the
	// log's owner calls WAL.SyncDirty, which syncs a file that took appends
	// since the last sync. The warehouse calls it SyncEvery after the first
	// such append (WAL.UnsyncedSince).
	SyncInterval SyncPolicy = iota
	// SyncNever leaves flushing entirely to the OS page cache.
	SyncNever
	// SyncAlways fsyncs once per append call; a batch still pays one sync.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// DefaultSyncEvery is the SyncInterval period when none is configured.
const DefaultSyncEvery = 100 * time.Millisecond

// ParseSyncPolicy reads a -fsync style flag value: "never", "always",
// "interval" (at the default period), or a duration like "250ms" meaning
// interval syncing at that period.
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "never":
		return SyncNever, 0, nil
	case "always":
		return SyncAlways, 0, nil
	case "", "interval":
		return SyncInterval, DefaultSyncEvery, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncInterval, 0, fmt.Errorf("persist: bad sync policy %q (want never, always, interval or a duration)", s)
	}
	return SyncInterval, d, nil
}

// DefaultSegmentBytes is the WAL rotation threshold.
const DefaultSegmentBytes = 4 << 20

// Event is one durable (warehouse sequence, tuple) pair.
type Event struct {
	Seq   uint64
	Tuple *stt.Tuple
}

// Key is the global eviction order of warehouse events: event time, then
// warehouse sequence. Sequence uniqueness makes the order total, so one Key
// fully describes a retention cut.
type Key struct {
	Time time.Time
	Seq  uint64
}

// Less reports whether k precedes o in eviction order.
func (k Key) Less(o Key) bool {
	if !k.Time.Equal(o.Time) {
		return k.Time.Before(o.Time)
	}
	return k.Seq < o.Seq
}

// IsZero reports whether the key is unset (no watermark).
func (k Key) IsZero() bool { return k.Time.IsZero() && k.Seq == 0 }

// keyJSON is the manifest encoding of a Key.
type keyJSON struct {
	UnixSec int64  `json:"unix_sec"`
	Nanos   int    `json:"nanos"`
	Seq     uint64 `json:"seq"`
	Set     bool   `json:"set"`
}

// ShardMark pins where one shard's log and spill history stood when the
// watermark was written: WAL records at or past (WALFile, WALOff), and
// segment files of generation >= SegGen, were created after the compaction
// and are exempt from its watermark — without the mark, a straggler
// ingested after a compaction (event time below the watermark, but alive)
// would be wrongly suppressed at recovery.
type ShardMark struct {
	WALFile int   `json:"wal_file"`
	WALOff  int64 `json:"wal_off"`
	SegGen  int   `json:"seg_gen"`
}

// Covers reports whether a WAL record at (file, off) predates the mark,
// i.e. was visible to the compaction that wrote it.
func (m ShardMark) Covers(p Pos) bool {
	if p.File != m.WALFile {
		return p.File < m.WALFile
	}
	return p.Off < m.WALOff
}

// Pos locates one record in a shard's WAL.
type Pos struct {
	File int   // wal file number
	Off  int64 // frame start offset within the file
}

// Cut records one compaction's eviction durably: every event with
// Key <= Watermark that the compaction could see — WAL records and segment
// files before the per-shard Marks — has been evicted and must not be
// resurrected by replay. The pairing is load-bearing: a watermark is only
// meaningful against the marks of the compaction that computed it. A later
// compaction may legitimately leave alive stragglers whose keys sit below
// an earlier cut's watermark (they arrived after it), so its own cut must
// carry its own, lower watermark rather than inherit the old one against
// new marks.
type Cut struct {
	Watermark Key `json:"-"`
	// Marks holds one ShardMark per shard, recorded when Watermark was.
	Marks []ShardMark `json:"marks,omitempty"`

	WatermarkJSON keyJSON `json:"watermark"`
}

// Mark returns the cut's mark for one shard (zero when out of range).
func (c Cut) Mark(shard int) ShardMark {
	if shard < len(c.Marks) {
		return c.Marks[shard]
	}
	return ShardMark{}
}

// maxCuts bounds the manifest's cut frontier. Overflow drops the
// oldest (highest-watermark) cut: its evictions are the longest-settled —
// their log files are the likeliest already checkpointed away — and the
// worst case of dropping it is bounded resurrection, never loss.
const maxCuts = 32

// CompactionRecord marks one cold-file compaction durably while its old
// files still exist: the merged file NewGen has been published and the
// victim files OldGens are condemned. The record is written after the new
// file's rename and cleared once every old file is deleted, so recovery can
// finish the deletions idempotently — without it, a crash between the
// deletes would leave the merged file and a surviving victim both
// registered, double-counting every event they share. (A crash *before*
// the record is written is already safe: the merged file's seqs are a
// subset of the victims', so recovery detects it as a duplicate and
// deletes it, harmlessly undoing the compaction.)
type CompactionRecord struct {
	Shard   int   `json:"shard"`
	NewGen  int   `json:"new_gen"`
	OldGens []int `json:"old_gens"`
}

// Manifest is the per-data-dir recovery state, saved atomically.
type Manifest struct {
	Version int `json:"version"`
	// Shards pins the shard count the directory layout was written for;
	// Open adopts it so spilled segment files stay on their shard.
	Shards int `json:"shards"`
	// Cuts is the frontier of live retention cuts, oldest first: marks
	// increase and watermarks strictly decrease along it (a new cut at or
	// above an older watermark subsumes the older cut, which is pruned).
	// An event is suppressed at recovery when ANY cut covers it.
	Cuts []Cut `json:"cuts,omitempty"`
	// Compactions holds the in-flight cold-file compactions: published
	// merged files whose victims may not all be deleted yet. Resolved (the
	// deletions finished) and cleared on recovery before segment files are
	// registered.
	Compactions []CompactionRecord `json:"compactions,omitempty"`
	// MaxSeq is the highest warehouse sequence known assigned when the
	// manifest was last saved. Recovery seeds its counter past it, so a
	// sequence is never reassigned even when every trace of its event was
	// legitimately erased pre-crash (spilled, WAL-checkpointed, then the
	// whole file deleted by a retention cut): re-deriving the counter from
	// surviving events alone would regress it and hand out duplicates.
	MaxSeq uint64 `json:"max_seq,omitempty"`

	// Evictions counts every retention eviction this directory has applied,
	// including degraded ones that recorded no cut (an unreadable cold file
	// kept its events, so no watermark was safe to persist). View
	// checkpoints fingerprint it together with the cut frontier: any
	// eviction invalidates state that can no longer subtract what left.
	Evictions uint64 `json:"evictions,omitempty"`

	// Views records the registered standing aggregate views and the
	// checkpoint file each resumes from, oldest registration first.
	Views []ViewRecord `json:"views,omitempty"`

	// Legacy single-cut fields, read (never written) so manifests from
	// before the frontier keep recovering.
	LegacyMarks         []ShardMark `json:"marks,omitempty"`
	LegacyWatermarkJSON *keyJSON    `json:"watermark,omitempty"`
}

// ViewRecord is one standing view's durable definition: the canonical
// registry key, the query in URL-values form (round-trippable through
// ParseAggQueryValues), the update policy's wire string, and the
// checkpoint file name under the views/ subdirectory.
type ViewRecord struct {
	Key    string `json:"key"`
	Query  string `json:"query"`
	Policy string `json:"policy"`
	File   string `json:"file"`
}

// maxViewRecords bounds the manifest's view list; registrations beyond it
// evict oldest-first.
const maxViewRecords = 32

// AddView appends or refreshes a view record, reporting whether the
// manifest changed and which records fell off the capped end (their
// checkpoint files should be deleted by the caller).
func (m *Manifest) AddView(r ViewRecord) (changed bool, evicted []ViewRecord) {
	for i, old := range m.Views {
		if old.Key == r.Key {
			if old == r {
				return false, nil
			}
			m.Views[i] = r
			return true, nil
		}
	}
	m.Views = append(m.Views, r)
	for len(m.Views) > maxViewRecords {
		evicted = append(evicted, m.Views[0])
		m.Views = append(m.Views[:0], m.Views[1:]...)
	}
	return true, evicted
}

// AddCut appends a compaction's cut, pruning the cuts it subsumes: every
// older cut whose watermark is at or below the new one is fully covered
// (the new cut's marks are at or past every older cut's). A zero-watermark
// cut records nothing and is ignored.
func (m *Manifest) AddCut(c Cut) {
	if c.Watermark.IsZero() {
		return
	}
	kept := m.Cuts[:0]
	for _, old := range m.Cuts {
		if !c.Watermark.Less(old.Watermark) { // old <= new: subsumed
			continue
		}
		kept = append(kept, old)
	}
	m.Cuts = append(kept, c)
	if len(m.Cuts) > maxCuts {
		m.Cuts = append(m.Cuts[:0], m.Cuts[1:]...)
	}
}

// LastMarks returns the newest cut's marks — the furthest positions any
// recorded compaction has seen — or nil when no cut exists.
func (m *Manifest) LastMarks() []ShardMark {
	if len(m.Cuts) == 0 {
		return nil
	}
	return m.Cuts[len(m.Cuts)-1].Marks
}

const manifestName = "MANIFEST.json"

// LoadManifest reads the manifest in dir; ok is false when none exists yet.
func LoadManifest(dir string) (Manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("persist: bad manifest: %w", err)
	}
	for i := range m.Cuts {
		if m.Cuts[i].WatermarkJSON.Set {
			m.Cuts[i].Watermark = keyFromJSON(m.Cuts[i].WatermarkJSON)
		}
	}
	// A pre-frontier manifest carries one (watermark, marks) pair at the
	// top level; adopt it as the sole cut.
	if len(m.Cuts) == 0 && m.LegacyWatermarkJSON != nil && m.LegacyWatermarkJSON.Set {
		m.Cuts = []Cut{{
			Watermark: keyFromJSON(*m.LegacyWatermarkJSON),
			Marks:     m.LegacyMarks,
		}}
	}
	m.LegacyMarks, m.LegacyWatermarkJSON = nil, nil
	return m, true, nil
}

// SaveManifest publishes the manifest with PublishFile: a crash leaves the
// old manifest or the new one, never a mix, and when it returns nil the new
// one is on disk — the compactor's record and retention's cut both rely on
// that before they delete anything.
func SaveManifest(dir string, m Manifest) error {
	cuts := make([]Cut, len(m.Cuts))
	copy(cuts, m.Cuts)
	for i := range cuts {
		if !cuts[i].Watermark.IsZero() {
			cuts[i].WatermarkJSON = timeToKeyJSON(cuts[i].Watermark)
		}
	}
	m.Cuts = cuts
	m.LegacyMarks, m.LegacyWatermarkJSON = nil, nil
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return PublishFile(filepath.Join(dir, manifestName), data)
}
