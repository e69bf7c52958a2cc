package warehouse

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/obs"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// DefaultShards is the shard count New uses; Config.Shards overrides it.
const DefaultShards = 16

// DefaultSegmentEvents is the per-segment event bound before a shard
// rotates to a fresh segment; Config.SegmentEvents overrides it.
const DefaultSegmentEvents = 4096

// DefaultSegmentSpan is the per-segment time-envelope bound before a shard
// rotates to a fresh segment; Config.SegmentSpan overrides it.
const DefaultSegmentSpan = time.Hour

// DefaultHotSegments is the per-shard sealed in-memory segment budget
// before cold segments spill to disk, when a DataDir is configured;
// Config.HotSegments overrides it.
const DefaultHotSegments = 16

// DefaultColdCacheBytes is the budget of the warehouse-wide LRU of decoded
// cold-segment chunks, when a DataDir is configured; Config.ColdCacheBytes
// overrides it.
const DefaultColdCacheBytes = 64 << 20

// Config sizes a warehouse. The zero value of any field selects its
// default.
type Config struct {
	// Shards is the shard count, rounded up to a power of two. When a
	// DataDir with an existing manifest is opened, the manifest's shard
	// count wins, so spilled segment files stay on the shard that wrote
	// them.
	Shards int
	// SegmentEvents bounds how many events one segment holds before the
	// shard rotates to a fresh one.
	SegmentEvents int
	// SegmentSpan bounds the event-time envelope one segment covers before
	// the shard rotates to a fresh one.
	SegmentSpan time.Duration

	// DataDir enables the durable subsystem: a per-shard write-ahead log
	// on the append path and spill-to-disk for cold segments. Empty keeps
	// the warehouse purely in-memory. Only Open honors it; NewWithConfig
	// always builds an in-memory store.
	DataDir string
	// Sync is the WAL fsync policy (default: persist.SyncInterval, under
	// which a background goroutine fsyncs a shard's WAL SyncEvery after its
	// first unsynced append, off the commit path; see doc.go).
	Sync persist.SyncPolicy
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// HotSegments bounds the sealed in-memory segments per shard before
	// the oldest spill to disk. 0 means DefaultHotSegments; negative
	// disables spilling (WAL-only durability).
	HotSegments int
	// WALBytes is the per-WAL-file rotation threshold (default 4 MiB).
	WALBytes int64
	// ColdCacheBytes budgets the warehouse-wide LRU of decoded cold-segment
	// chunks, so repeated window queries over the same spilled history hit
	// RAM instead of re-reading files. 0 means DefaultColdCacheBytes;
	// negative disables the cache.
	ColdCacheBytes int64
	// CompactBelow is the live-event threshold under which a cold segment
	// file counts as small enough to merge with its adjacent neighbors:
	// the background compactor rewrites runs of cold files that are small
	// or overlapping by (time, seq) key into one well-pruning file;
	// full-size files in order are never rewritten. 0 means SegmentEvents/2; negative
	// disables compaction.
	CompactBelow int

	// ViewCheckpointEvery is how many view state mutations may accumulate
	// before the publisher writes the view's bucketed partials to a
	// checkpoint file (durable mode only): a restart or a reconnecting
	// subscriber then resumes from the checkpoint plus a tail fold of the
	// newer events instead of a full history scan. 0 means
	// DefaultViewCheckpointEvery; negative disables automatic checkpoints
	// (a final one is still written on clean close and view release).
	ViewCheckpointEvery int

	// Obs is the metrics registry the warehouse reports its latency
	// histograms and stats snapshot into. Nil disables instrumentation
	// (every handle degrades to a nil no-op).
	Obs *obs.Registry
}

// DefaultViewCheckpointEvery is the view-mutation count between automatic
// view checkpoints; Config.ViewCheckpointEvery overrides it.
const DefaultViewCheckpointEvery = 4096

// Event is one stored STT event: the warehouse-assigned insertion sequence
// and the tuple. The durable layer moves the same pair, so there is one type.
type Event = persist.Event

// Query selects stored events. Zero-valued constraints match everything.
type Query struct {
	// From/To bound the event time (inclusive from, exclusive to).
	From, To time.Time
	// Region bounds the event position.
	Region *geo.Rect
	// Themes restricts to events carrying one of the themes.
	Themes []string
	// Sources restricts to specific producing sensors/operations.
	Sources []string
	// Cond is an optional payload condition; it is compiled lazily per
	// schema encountered, so heterogeneous events can coexist.
	Cond string
	// Limit caps the result size (0 = unlimited).
	Limit int
}

// QueryStats reports how segment pruning served one query: Scanned segments
// were walked — for Select and a limited Count, those the merge gave a
// cursor, whether or not the page filled before it was read — Pruned
// segments were skipped outright because their time envelope missed the
// query window or their source and theme counts name nothing the filter
// asks for.
type QueryStats struct {
	SegmentsScanned int `json:"segments_scanned"`
	SegmentsPruned  int `json:"segments_pruned"`
	// ColdCacheHits/ColdCacheMisses count the cold-segment chunks this
	// query found decoded in the chunk cache versus read back from disk.
	ColdCacheHits   int `json:"cold_cache_hits"`
	ColdCacheMisses int `json:"cold_cache_misses"`
	// ColdHeaderOnly counts the cold segments an aggregate or a time-only
	// count answered purely from header stats — no chunk read, no event
	// decoded.
	ColdHeaderOnly int `json:"cold_header_only"`
	// ColdChunkStats counts the cold-segment chunks an aggregate answered
	// from per-chunk sparse-index stats — each one a chunk that overlapped
	// the query window yet was never read or decoded.
	ColdChunkStats int `json:"cold_chunk_stats_hits"`
	// ColdColumnsSkipped counts the column sections projected decodes
	// skipped over — columns the query provably did not need.
	ColdColumnsSkipped int `json:"cold_columns_skipped"`
	// ColdBytesDecoded is how many event-block bytes this query's cold
	// reads actually parsed: the projected sections only; cache hits
	// contribute nothing.
	ColdBytesDecoded int64 `json:"cold_bytes_decoded"`
	// HotChunkStats counts the chunks of sealed in-memory segments an
	// aggregate answered from their chunk index (the in-memory twin of
	// ColdChunkStats): each one a chunk that overlapped the query window
	// yet had none of its events folded. It stays off the wire, so query
	// replies keep their members.
	HotChunkStats int `json:"-"`
}

// sourceHash routes a source name to a shard. It is FNV-1a rather than a
// seeded hash so the routing is stable across process restarts: a durable
// warehouse must send a recovering source's events to the shard whose WAL
// and spill files hold its history.
func sourceHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Warehouse is the STT event store. Safe for concurrent use.
type Warehouse struct {
	shards []*shard
	mask   uint64

	nextID  atomic.Uint64
	count   atomic.Int64
	evicted atomic.Uint64

	// segDrops/segTrims count retention work units: segments dropped whole
	// off the cold end versus boundary segments trimmed per event.
	segDrops atomic.Uint64
	segTrims atomic.Uint64
	// cutPops counts the retention walk's heap pops, its unit of work: one
	// per run of a segment's keys below every other head, never one per
	// event, however many events share an instant.
	cutPops atomic.Uint64

	// Durable-mode counters; pers is nil for an in-memory warehouse.
	// manifestSaveErrors counts failed manifest saves (saveManifest).
	pers               *persistState
	segsSpilled        atomic.Uint64
	coldBytes          atomic.Int64
	recovered          atomic.Uint64
	manifestSaveErrors atomic.Uint64

	// chunkStatsHits counts the cold chunks aggregate queries answered from
	// per-chunk stats; columnsSkipped the column sections projected reads
	// skipped; compactions/segsCompacted count background cold-file
	// compactions and the files they merged away.
	chunkStatsHits atomic.Uint64
	columnsSkipped atomic.Uint64
	compactions    atomic.Uint64
	segsCompacted  atomic.Uint64

	// spill is the background spill worker, compact the background cold-file
	// compactor, and coldCache the LRU of decoded cold chunks; all nil for
	// an in-memory warehouse (coldCache also when disabled by config,
	// compact also when disabled by config).
	spill     *spiller
	compact   *compactor
	coldCache *persist.ChunkCache
	// walSync fsyncs the WALs under SyncInterval; nil otherwise.
	walSync *walSyncer

	// retMu serializes retention changes and global compactions, which
	// need every shard lock (always taken in shard order).
	retMu     sync.Mutex
	maxEvents atomic.Int64

	// views holds the registered materialized aggregate views (view.go).
	views viewRegistry

	// Standing-view maintenance counters: frames dropped whole (retention
	// cuts and window expiry), exact boundary subtractions, one-bucket
	// boundary rescans, checkpoints written, registrations that resumed
	// from a checkpoint instead of backfilling, and snapshots rendered to
	// their wire form (one per update, however many subscribers).
	viewFrameDrops      atomic.Uint64
	viewSubtractions    atomic.Uint64
	viewBoundaryRescans atomic.Uint64
	viewCheckpoints     atomic.Uint64
	viewResumes         atomic.Uint64
	viewEncodes         atomic.Uint64

	// nowFn is the clock windowed views and window-bounded aggregates read;
	// it is time.Now outside tests. The model checker pins it so window
	// expiry is deterministic.
	nowFn func() time.Time

	// viewCkptEvery is Config.ViewCheckpointEvery resolved (0 when
	// checkpoints are disabled or the warehouse is in-memory).
	viewCkptEvery int

	// obsReg is the configured metrics registry (nil when observability is
	// off); met holds the warehouse's latency histogram handles (obs.go).
	obsReg *obs.Registry
	met    whMetrics
}

// persistState carries the warehouse-global durable-mode state: the data
// directory and the manifest holding the retention watermark. The manifest
// is only written under every shard lock (compactions), so it needs no
// extra synchronization beyond retMu.
type persistState struct {
	dir      string
	manifest persist.Manifest
}

// New creates an empty warehouse with the default configuration.
func New() *Warehouse { return NewWithConfig(Config{}) }

// NewWithConfig creates an empty in-memory warehouse sized by cfg; zero
// fields take their defaults. The persistence fields (DataDir and friends)
// are ignored — Open is the entry point for a durable warehouse.
func NewWithConfig(cfg Config) *Warehouse {
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	if cfg.SegmentEvents < 1 {
		cfg.SegmentEvents = DefaultSegmentEvents
	}
	if cfg.SegmentSpan <= 0 {
		cfg.SegmentSpan = DefaultSegmentSpan
	}
	pow := 1
	for pow < cfg.Shards {
		pow <<= 1
	}
	w := &Warehouse{shards: make([]*shard, pow), mask: uint64(pow - 1)}
	lim := segLimits{maxEvents: cfg.SegmentEvents, maxSpan: cfg.SegmentSpan}
	for i := range w.shards {
		w.shards[i] = newShard(lim)
		w.shards[i].idx = i
	}
	w.nowFn = time.Now
	switch {
	case cfg.ViewCheckpointEvery > 0:
		w.viewCkptEvery = cfg.ViewCheckpointEvery
	case cfg.ViewCheckpointEvery == 0:
		w.viewCkptEvery = DefaultViewCheckpointEvery
	}
	w.obsReg = cfg.Obs
	w.met = newWHMetrics(cfg.Obs)
	w.registerStatsCollector(cfg.Obs)
	return w
}

// now reads the warehouse clock (time.Now unless a test pinned it).
func (w *Warehouse) now() time.Time { return w.nowFn() }

// NumShards returns the shard count.
func (w *Warehouse) NumShards() int { return len(w.shards) }

// shardFor routes a source to its shard. Hashing by source keeps each
// sensor's stream on one shard.
func (w *Warehouse) shardFor(source string) *shard {
	return w.shards[sourceHash(source)&w.mask]
}

// Append stores one event. A tuple whose value count differs from its
// schema's field count is refused before any lock or WAL write: reads index
// values by field position. The tuple is retained as-is and must not be
// mutated afterwards (executor tuples are never mutated downstream). In
// durable mode the event is logged before it becomes visible — and, under
// SyncAlways, synced — so a returned nil means the event survives a process
// crash, and a machine crash per the fsync policy.
func (w *Warehouse) Append(t *stt.Tuple) error {
	if t == nil || t.Schema == nil {
		return fmt.Errorf("warehouse: nil tuple")
	}
	if err := t.CheckArity(); err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	t0 := w.met.append.Start()
	defer w.met.append.Since(t0)
	s := w.shardFor(t.Source)
	s.mu.Lock()
	one := s.oneScratch[:1]
	one[0] = Event{Seq: w.nextID.Add(1) - 1, Tuple: t}
	err := w.commitLocked(s, one)
	one[0] = Event{}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	w.throttleSpill()
	w.maybeCompact()
	return nil
}

// AppendBatch stores a batch of events, taking each involved shard lock
// once instead of once per tuple; in durable mode each shard's sub-batch
// is one WAL record and at most one fsync. The batch takes one contiguous
// Seq block, in batch order. It is grouped by shard first, and the block is
// reserved only once every involved shard is locked (in index order, as
// compactAll locks them), so no shard's seqNext can pass a seq of this batch
// that has yet to commit there: seqNext stays a commit cut (see commitLocked).
// The whole batch is validated up front — no nil tuple, each tuple's arity
// its schema's — and on a validation error nothing is stored. A WAL write failure also fails the call, but sub-batches already
// logged to other shards remain stored (and durable). Tuples are retained
// as-is, like Append.
func (w *Warehouse) AppendBatch(tuples []*stt.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	for _, t := range tuples {
		if t == nil || t.Schema == nil {
			return fmt.Errorf("warehouse: nil tuple in batch")
		}
		if err := t.CheckArity(); err != nil {
			return fmt.Errorf("warehouse: batch: %w", err)
		}
	}
	t0 := w.met.append.Start()
	defer w.met.append.Since(t0)

	// Seq holds the batch position until the block is reserved.
	groups := make([][]Event, len(w.shards))
	for i, t := range tuples {
		si := w.shardFor(t.Source).idx
		groups[si] = append(groups[si], Event{Seq: uint64(i), Tuple: t})
	}
	for si, evs := range groups {
		if evs != nil {
			w.shards[si].mu.Lock()
		}
	}
	base := w.nextID.Add(uint64(len(tuples))) - uint64(len(tuples))
	var err error
	for si, evs := range groups {
		if evs == nil {
			continue
		}
		s := w.shards[si]
		if err == nil {
			for j := range evs {
				evs[j].Seq += base
			}
			err = w.commitLocked(s, evs)
		}
		s.mu.Unlock()
	}
	if err != nil {
		return err
	}
	w.throttleSpill()
	w.maybeCompact()
	return nil
}

// commitLocked is the one commit sequence: log the events in durable mode,
// then make them visible and hand them to the taps. A WAL failure drops them
// all before any becomes visible. Caller holds the shard's write lock, and
// has held it since the events' seqs were reserved: that is what makes the
// shard's seqNext a commit cut — every seq below it that routes here has
// committed — which the view handoff's tail fold (seq >= seqNext) relies on.
func (w *Warehouse) commitLocked(s *shard, evs []Event) error {
	if s.wal != nil {
		if err := s.wal.Append(evs); err != nil {
			return fmt.Errorf("warehouse: wal: %w", err)
		}
	}
	for _, ev := range evs {
		s.appendLocked(ev)
	}
	w.count.Add(int64(len(evs)))
	s.dispatchTapLocked(w, evs)
	return nil
}

// SetRetention bounds the store to at most maxEvents events; the oldest (by
// event time) are evicted when the bound is exceeded. Zero disables
// retention (the default).
func (w *Warehouse) SetRetention(maxEvents int) {
	w.maxEvents.Store(int64(maxEvents))
	w.maybeCompact()
}

// Evicted returns how many events retention has dropped so far.
func (w *Warehouse) Evicted() uint64 { return w.evicted.Load() }

// Len returns the number of stored events.
func (w *Warehouse) Len() int { return int(w.count.Load()) }

// maybeCompact runs a global compaction when retention is enabled and the
// store exceeds the bound. Append paths call it after releasing their shard
// lock, so compaction can take every shard lock without deadlocking.
func (w *Warehouse) maybeCompact() {
	max := w.maxEvents.Load()
	if max <= 0 || w.count.Load() <= max {
		return
	}
	w.retMu.Lock()
	defer w.retMu.Unlock()
	max = w.maxEvents.Load()
	if max <= 0 || w.count.Load() <= max {
		return
	}
	w.compactAll(int(max))
	// Retention trims shrink cold files logically; nudge the file compactor
	// to fold the newly-small ones into their neighbors.
	for _, s := range w.shards {
		w.maybeCompactCold(s)
	}
}

// compactAll drops the globally-oldest events down to 3/4 of the bound
// (amortizing the boundary trims). Whole cold segments fall off in O(1)
// each — an in-memory unlink or one file delete, no index rebuilt — and
// only the segments straddling the cutoff pay a per-event trim. In durable
// mode the eviction watermark is persisted to the manifest before any
// state changes, so a crash can never resurrect evicted events from the
// WAL or from spilled files. Caller holds retMu; every shard lock is
// taken, in order, for the duration.
func (w *Warehouse) compactAll(maxEvents int) {
	for _, s := range w.shards {
		s.mu.Lock()
	}
	held := w.met.retentionCut.Start()
	defer func() {
		w.met.retentionCut.Since(held)
		for _, s := range w.shards {
			s.mu.Unlock()
		}
	}()

	total := 0
	for _, s := range w.shards {
		total += s.count
	}
	keep := maxEvents * 3 / 4
	if keep < 1 {
		keep = 1
	}
	if keep >= total {
		return
	}
	drop := total - keep

	// The globally-oldest events form a prefix of each segment's time
	// index: walk the segment prefixes by (time, Seq) key to apportion the
	// drop count. A min-heap orders segment cursors by their head key, and
	// the coldest cursor is consumed in runs — its whole remainder when that
	// precedes every other head (the common case for sealed history), or
	// the binary-searched prefix of keys below the next head's key. A run
	// ends only where another segment's keys interleave: on heads that tie
	// on time, that is an appended batch, which takes contiguous seqs. So
	// the walk costs O(runs · log segments), not O(drop · segments), even
	// when out-of-order segments overlap the cold end or every event shares
	// an instant. Spilled segments join the walk by their envelope keys
	// alone; only one that is partially consumed (the boundary file) is
	// read back from disk.
	var cursors []*segCursor
	h := &cursorHeap[*segCursor]{}
	for _, s := range w.shards {
		for _, seg := range s.segs {
			c := &segCursor{sh: s, mem: seg}
			cursors = append(cursors, c)
			*h = append(*h, c)
		}
		for _, cs := range s.cold {
			c := &segCursor{sh: s, cold: cs}
			cursors = append(cursors, c)
			*h = append(*h, c)
		}
	}
	heap.Init(h)

	remaining := drop
	pops := 0
	for remaining > 0 && h.Len() > 0 {
		c := heap.Pop(h).(*segCursor)
		pops++
		if c.dead {
			continue
		}
		rest := c.length() - c.pos
		if h.Len() == 0 {
			take := min(rest, remaining)
			if c.cold != nil && take < rest {
				// Partial consumption needs per-event keys below; make
				// sure the boundary file is readable before committing.
				if c.load() != nil {
					continue
				}
			}
			c.pos += take
			remaining -= take
			continue
		}
		next := (*h)[0].head()
		if rest <= remaining && c.tail().Less(next) {
			c.pos += rest // whole remainder is globally coldest: consume it all
			remaining -= rest
			continue
		}
		// Consume the prefix of keys below the next head's key in one
		// chunk; by time alone it would be empty whenever the heads share
		// an instant. Keys are distinct and c was the heap's minimum, so
		// the prefix holds at least c's head; taking at least one keeps
		// the walk finite regardless. For a cold cursor this loads the
		// file — it is the compaction boundary, so at most a couple of
		// files per compaction pay the read; an unreadable file is left
		// untouched (its events simply outlive the bound).
		if c.cold != nil && c.load() != nil {
			c.dead = true
			continue
		}
		chunk := sort.Search(rest, func(i int) bool {
			k, _ := c.key(c.pos + i)
			return !k.Less(next)
		})
		take := min(max(chunk, 1), remaining)
		c.pos += take
		remaining -= take
		if c.pos < c.length() {
			heap.Push(h, c)
		}
	}
	w.cutPops.Add(uint64(pops))

	// Actual evictions may fall short of the plan when an unreadable cold
	// file was skipped; count what really happens.
	dropped := 0
	anyDead := false
	var cut persist.Key
	for _, c := range cursors {
		anyDead = anyDead || c.dead
		if c.pos == 0 {
			continue
		}
		dropped += c.pos
		if k, ok := c.key(c.pos - 1); ok && cut.Less(k) {
			cut = k
		}
	}
	if dropped == 0 {
		return
	}
	// Persist the cut first: recovery re-applies any eviction the crash
	// interrupts below. The per-shard marks scope this cut to the records
	// this compaction could see — a straggler logged later may carry an
	// event time below the watermark yet must survive recovery. The cut is
	// paired with THIS compaction's marks and added to the manifest's cut
	// frontier rather than max-merged into a single watermark: an older,
	// higher watermark stays scoped by its own older marks, so stragglers
	// that arrived after it (and legitimately survive this compaction
	// despite sitting below it) are never swept at recovery. When an
	// unreadable cold file kept its (old) events, the cut computed from
	// the segments that did evict would cover them too, and the next Open
	// — with the file readable again — would delete events that visibly
	// survived; leave the manifest alone in that degraded case and let
	// the next clean compaction advance it (resurrecting this round's
	// evictions after a crash is recoverable, losing live events is not).
	if w.pers != nil {
		if !anyDead {
			marks := make([]persist.ShardMark, len(w.shards))
			for i, s := range w.shards {
				if s.wal != nil {
					p := s.wal.Position()
					marks[i] = persist.ShardMark{WALFile: p.File, WALOff: p.Off, SegGen: s.nextSegGen}
				}
			}
			w.pers.manifest.AddCut(persist.Cut{Watermark: cut, Marks: marks})
		}
		// Even a degraded (anyDead) eviction deletes cold files, so the
		// seq high-water mark must go durable regardless of whether a cut
		// was recorded. A failed manifest write is tolerable (and counted by
		// saveManifest): eviction proceeds, and the worst case after a crash
		// is re-ingesting events the next compaction re-evicts. The eviction
		// counter bumps on every eviction — cut or degraded — so view
		// checkpoints taken before it can never pass their fingerprint
		// check.
		w.pers.manifest.Evictions++
		_ = w.saveManifest()
	}

	// Patch the standing views before the drops are applied below, while
	// the evicted events are still readable from memory: whole frames
	// below the cut fall off without a rescan, subtractable aggregates get
	// exact boundary deltas, and only a MIN/MAX boundary frame queues a
	// one-bucket rescan (view_trim.go).
	w.trimViews(cut, anyDead, cursors)

	perShard := map[*shard][]*segCursor{}
	for _, c := range cursors {
		if c.pos > 0 {
			perShard[c.sh] = append(perShard[c.sh], c)
		}
	}
	for _, s := range w.shards {
		if perShard[s] == nil {
			continue
		}
		whole, trims := s.applyDropsLocked(w, perShard[s])
		w.segDrops.Add(uint64(whole))
		w.segTrims.Add(uint64(trims))
		if s.wal != nil {
			// In-memory evictions may have raised the shard's minimum
			// live seq; let the WAL retire obsolete files.
			s.wal.DropObsolete(s.minLiveSeqLocked())
		}
	}
	w.evicted.Add(uint64(dropped))
	// All shard locks are held, so no append races this adjustment.
	w.count.Add(int64(-dropped))
}

// segCursor tracks a compaction's progress through one segment — exactly
// one of mem (in-memory) or cold (spilled) is set — in (time, Seq) order:
// events before pos are marked for eviction.
type segCursor struct {
	sh   *shard
	mem  *segment
	cold *coldSegment
	pos  int
	// loaded holds a cold cursor's live events once the walk needs their
	// keys (load): the cut's boundary files, whose evicted prefix the
	// standing views and the trim then read from here.
	loaded []Event
	// dead marks a cold cursor whose file could not be read; it is
	// excluded from the walk and keeps its events.
	dead bool
}

// load reads a cold cursor's live events into loaded, once.
func (c *segCursor) load() error {
	if c.loaded != nil {
		return nil
	}
	evs, err := c.cold.live()
	if err != nil {
		return err
	}
	c.loaded = evs
	return nil
}

func (c *segCursor) length() int {
	if c.mem != nil {
		return c.mem.len()
	}
	return c.cold.count
}

// key returns the eviction key of the i-th oldest event. For a cold
// segment the first and last keys come from the envelope, and interior
// positions force a file load; ok is false if the file is unreadable.
func (c *segCursor) key(i int) (persist.Key, bool) {
	switch {
	case c.mem != nil:
		return eventKey(c.mem.events[c.mem.byTime[i]]), true
	case i == 0:
		return c.cold.head, true
	case i == c.cold.count-1:
		return c.cold.tail, true
	case c.load() != nil:
		return persist.Key{}, false
	}
	return eventKey(c.loaded[i]), true
}

func (c *segCursor) head() persist.Key {
	k, _ := c.key(c.pos)
	return k
}

func (c *segCursor) tail() persist.Key {
	k, _ := c.key(c.length() - 1)
	return k
}

// cursorHeap is a min-heap of cursors ordered by head key: the retention
// cut's segment cursors and the select merge's cursors.
type cursorHeap[C interface{ head() persist.Key }] []C

func (h cursorHeap[C]) Len() int           { return len(h) }
func (h cursorHeap[C]) Less(i, j int) bool { return h[i].head().Less(h[j].head()) }
func (h cursorHeap[C]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap[C]) Push(x any)        { *h = append(*h, x.(C)) }
func (h *cursorHeap[C]) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	var zero C
	old[n-1] = zero
	*h = old[:n-1]
	return c
}

// runnerUp returns the head of the heap's second-smallest cursor, the
// smaller of the root's children; alone reports a heap of one cursor,
// which has no runner-up.
func (h cursorHeap[C]) runnerUp() (k persist.Key, alone bool) {
	switch len(h) {
	case 1:
		return persist.Key{}, true
	case 2:
		return h[1].head(), false
	}
	a, b := h[1].head(), h[2].head()
	if b.Less(a) {
		return b, false
	}
	return a, false
}

// routedShards returns the shards a query must visit, in shard-index order:
// all of them, unless a source constraint pins it to the shards those
// sources hash to.
func (w *Warehouse) routedShards(q Query) []*shard {
	if len(q.Sources) == 0 || len(w.shards) == 1 {
		return w.shards
	}
	hit := make([]bool, len(w.shards))
	for _, src := range q.Sources {
		hit[w.shardFor(src).idx] = true
	}
	var routed []*shard
	for i, s := range w.shards {
		if hit[i] {
			routed = append(routed, s)
		}
	}
	return routed
}

// forEachShard runs fn once per shard, concurrently when there are several.
func forEachShard(shards []*shard, fn func(i int, s *shard)) {
	if len(shards) == 1 {
		fn(0, shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for i, s := range shards {
		go func() {
			defer wg.Done()
			fn(i, s)
		}()
	}
	wg.Wait()
}

// Select returns the events matching the query in (event time, Seq) order,
// capped at q.Limit when set, plus how pruning and the cold cache served it.
// It is one lazy merge (mergeShards) over the cold files and hot segments of
// the routed shards — all of them, unless a source constraint pins the query
// to the shards those sources hash to — that stops once the page is full: a
// limit is a reason not to read a chunk, and a cold chunk the page never
// reaches is never decoded. The routed shards are read-locked, in shard-index
// order, for the whole merge. When ctx carries a trace (obs.WithTrace) the
// call records one span per shard visited and a merge span — the ?trace=1
// explain path. A cancelled ctx stops the merge before its next chunk read
// and returns ctx.Err().
func (w *Warehouse) Select(ctx context.Context, q Query) ([]Event, QueryStats, error) {
	t0 := w.met.selectQ.Start()
	defer w.met.selectQ.Since(t0)
	pl := scanPlan{Query: q, proj: persist.FullProjection}
	var out []Event
	if q.Limit > 0 {
		out = make([]Event, 0, min(q.Limit, 1<<16))
	}
	qs, err := mergeShards(ctx, w, &pl, q.Limit, func(ev Event) { out = append(out, ev) })
	if err != nil {
		return nil, qs, err
	}
	return out, qs, nil
}

// Count returns the number of matching events — at most q.Limit when set —
// without materializing them, with the same telemetry, tracing and
// cancellation as Select. A query constrained by time alone touches no
// event: covered cold files contribute their header count, in-memory
// segments a binary-searched slice of their time index, and only a
// partially covered cold file reads its boundary chunks back. Anything else
// decodes the filter's columns (everything, under a Cond) and counts; with a
// limit it walks Select's merge and stops at the limit-th match.
func (w *Warehouse) Count(ctx context.Context, q Query) (int, QueryStats, error) {
	t0 := w.met.selectQ.Start()
	defer w.met.selectQ.Since(t0)
	pl := scanPlan{Query: q, proj: q.projection()}
	timeOnly := q.Region == nil && len(q.Themes) == 0 && len(q.Sources) == 0 && q.Cond == ""
	if q.Limit > 0 && !timeOnly {
		// Select's merge, for its stop: nothing past the limit-th match is read.
		n := 0
		qs, err := mergeShards(ctx, w, &pl, q.Limit, func(Event) { n++ })
		return n, qs, err
	}
	vs, _, qs, err := scanShards(ctx, w, &pl, func() *countVisitor { return &countVisitor{q: &pl.Query, timeOnly: timeOnly} })
	if err != nil {
		return 0, qs, err
	}
	n := 0
	for _, v := range vs {
		n += v.n
	}
	if q.Limit > 0 && n > q.Limit {
		n = q.Limit
	}
	return n, qs, nil
}

// countVisitor counts a shard's matches; when the window is the only
// constraint, envelopes and time indexes count exactly without an event.
type countVisitor struct {
	noShortcuts
	q        *Query
	timeOnly bool
	n        int
}

func (v *countVisitor) file(cs *coldSegment) (bool, error) {
	if !v.timeOnly || !cs.coveredBy(v.q.From, v.q.To) {
		return false, nil
	}
	v.n += cs.count
	return true, nil
}

func (v *countVisitor) segment(g *segment) bool {
	if v.timeOnly {
		lo, hi := g.timeBounds(v.q.From, v.q.To)
		v.n += hi - lo
	}
	return v.timeOnly
}

func (v *countVisitor) event(Event) error {
	v.n++
	return nil
}

func (v *countVisitor) done() int { return v.n }

// Stats summarizes the warehouse content for the monitoring UI.
type Stats struct {
	Events   int            `json:"events"`
	Sources  int            `json:"sources"`
	Themes   map[string]int `json:"themes"`
	Earliest time.Time      `json:"earliest"`
	Latest   time.Time      `json:"latest"`
	// Segments is the live time-partition count across all shards (cold
	// included); SegmentsDropped counts whole segments retention has aged
	// out.
	Segments        int    `json:"segments"`
	SegmentsDropped uint64 `json:"segments_dropped"`

	// Durable-mode telemetry. SegmentsCold is the live spilled-segment
	// count; SegmentsSpilled the cumulative spills; WALBytes/DiskBytes the
	// on-disk footprint (DiskBytes = WAL + segment files);
	// RecoveredEvents how many events the last Open brought back (WAL
	// replay plus re-registered spilled segments). All zero for an
	// in-memory warehouse.
	SegmentsCold    int    `json:"segments_cold"`
	SegmentsSpilled uint64 `json:"segments_spilled"`
	WALBytes        int64  `json:"wal_bytes"`
	DiskBytes       int64  `json:"disk_bytes"`
	RecoveredEvents uint64 `json:"recovered_events"`
	// ManifestSaveErrors counts manifest saves that failed after Open. The
	// callers that carry on regardless (a retention cut, a finished
	// compaction's record, a view definition) would otherwise fail silently.
	ManifestSaveErrors uint64 `json:"manifest_save_errors"`

	// Cold-read chunk cache counters: cumulative hits and misses, and the
	// decoded chunks currently resident — in encoded bytes, which is what
	// the budget bounds, and in the bytes their decoded form holds in
	// memory. All zero for an in-memory warehouse or when the cache is
	// disabled.
	ColdCacheHits      uint64 `json:"cold_cache_hits"`
	ColdCacheMisses    uint64 `json:"cold_cache_misses"`
	ColdCacheBytes     int64  `json:"cold_cache_bytes"`
	ColdCacheHeldBytes int64  `json:"cold_cache_held_bytes"`

	// ColdChunkStatsHits counts the cold chunks aggregate queries answered
	// from per-chunk sparse-index stats instead of decoding them.
	// ColdColumnsSkipped counts the column sections projected reads
	// skipped instead of decoding. Compactions counts background cold-file
	// compactions and SegmentsCompacted the files they merged away.
	ColdChunkStatsHits uint64 `json:"cold_chunk_stats_hits"`
	ColdColumnsSkipped uint64 `json:"cold_columns_skipped"`
	Compactions        uint64 `json:"compactions"`
	SegmentsCompacted  uint64 `json:"segments_compacted"`

	// Views is the live materialized-view count and ViewSubscribers the
	// subscriber total across them.
	Views           int `json:"views"`
	ViewSubscribers int `json:"view_subscribers"`

	// Standing-view maintenance counters: partial frames dropped whole
	// (retention cuts and window expiry), exact boundary subtractions,
	// one-bucket boundary rescans, checkpoints written, registrations
	// that resumed from a checkpoint instead of backfilling, and snapshots
	// rendered to their wire form (one per update, not per subscriber).
	ViewFrameDrops      uint64 `json:"view_frame_drops"`
	ViewSubtractions    uint64 `json:"view_subtractions"`
	ViewBoundaryRescans uint64 `json:"view_boundary_rescans"`
	ViewCheckpoints     uint64 `json:"view_checkpoints"`
	ViewResumes         uint64 `json:"view_resumes"`
	ViewEncodes         uint64 `json:"view_encodes"`
}

// Stats computes the summary, folding every shard's contribution.
func (w *Warehouse) Stats() Stats {
	st := Stats{Themes: map[string]int{}}
	for _, s := range w.shards {
		s.stats(&st)
	}
	st.SegmentsDropped = w.segDrops.Load()
	st.SegmentsSpilled = w.segsSpilled.Load()
	st.DiskBytes = st.WALBytes + w.coldBytes.Load()
	st.RecoveredEvents = w.recovered.Load()
	st.ManifestSaveErrors = w.manifestSaveErrors.Load()
	cc := w.coldCache.Stats()
	st.ColdCacheHits = cc.Hits
	st.ColdCacheMisses = cc.Misses
	st.ColdCacheBytes = cc.Bytes
	st.ColdCacheHeldBytes = cc.HeldBytes
	st.ColdChunkStatsHits = w.chunkStatsHits.Load()
	st.ColdColumnsSkipped = w.columnsSkipped.Load()
	st.Compactions = w.compactions.Load()
	st.SegmentsCompacted = w.segsCompacted.Load()
	st.Views = w.ViewCount()
	st.ViewSubscribers = w.SubscriberCount()
	st.ViewFrameDrops = w.viewFrameDrops.Load()
	st.ViewSubtractions = w.viewSubtractions.Load()
	st.ViewBoundaryRescans = w.viewBoundaryRescans.Load()
	st.ViewCheckpoints = w.viewCheckpoints.Load()
	st.ViewResumes = w.viewResumes.Load()
	st.ViewEncodes = w.viewEncodes.Load()
	return st
}

// Sink adapts the warehouse to the executor's Sink interface. It also
// implements the executor's batch-accept capability, so the executor's
// buffering sink wrapper can route whole batches to AppendBatch.
type Sink struct {
	W *Warehouse
}

// Accept appends the tuple.
func (s Sink) Accept(t *stt.Tuple) error { return s.W.Append(t) }

// AcceptBatch appends a batch with one lock round-trip per shard.
func (s Sink) AcceptBatch(tuples []*stt.Tuple) error { return s.W.AppendBatch(tuples) }

// Close is a no-op; the warehouse outlives deployments.
func (s Sink) Close() error { return nil }
