// Package warehouse is StreamLoader's stand-in for the NICT Event Data
// Warehouse [6] the paper's dataflows load into: an in-memory event store
// queried along the three STT dimensions — time, space and theme — and by
// source, with a query API suited to the "further analysis" the paper
// delegates to it.
//
// # Layout: shards of time-partitioned segments
//
// The store is partitioned twice. Events are first routed by source hash
// across N power-of-two shards, each with its own lock, so concurrent
// producers of distinct sources never contend; AppendBatch groups a batch
// per shard and takes each shard lock once, which is the executor's
// preferred ingest path.
//
// Inside a shard, events live in time-partitioned segments. The active
// "hot" segment absorbs the advancing stream and rotates — is sealed and
// replaced — once it holds Config.SegmentEvents events or its event-time
// envelope covers Config.SegmentSpan. Stragglers arriving with event times
// older than the sealed history are diverted to a side out-of-order
// segment (rotating on the same bounds), so a late event never stretches a
// sealed segment's [minTime, maxTime] envelope. Each segment carries its
// own time index plus per-source and per-theme counts, the same counts a
// cold file's header carries.
//
// # Query path
//
// There are three query entry points, each (ctx, query) → (result,
// QueryStats, error): Select returns events in (event time, Seq) order,
// Count a number, Aggregate grouped rows. Each visits the routed shards —
// all of them, or, for a source-constrained query, only the shards those
// sources hash to — under their read locks, and the context carries the
// optional trace (obs.WithTrace): one span per shard visited plus one for
// Select's merge.
//
// Select is one lazy k-way merge, in (time, seq) order, over a cursor per
// cold file and per hot segment the window reaches (mergeShards, beside the
// kernel in scan.go). It takes every routed shard's read lock in shard-index
// order — the order AppendBatch and the retention cut take their write locks
// in — and holds them until the page is full. A cold cursor starts at the
// file's window positions, past its retention skip, and sits in the heap at
// a lower bound on its first match — the later of the file's live head and
// the window start — until it reaches the top; only then does it decode one
// chunk through the kernel's read path (chunk cache, projection, the
// two-phase filter read, QueryStats), and once that chunk is drained it
// waits again at a bound on the next. A hot cursor walks the window's
// stretch of the segment's time index. The merge emits in runs: the top cursor keeps emitting, one
// key compare per event, while its head stays below the runner-up's (the
// smaller of the root's two children), and the heap is fixed once per run.
// A shard appends a batch at contiguous seqs, so where every shard's events
// share an instant — a schema's granularity aligns thousands of events to
// one — a run is a batch, not an event. The merge stops at the limit, so a
// limit is a reason not to read a chunk: a file or chunk the page never
// reaches is never decoded. A limited Count with any filter walks the same
// merge for the same stop. The context is checked before each chunk read.
//
// Everything else — Aggregate, an unlimited or time-only Count, view scans
// — walks each shard with the scan kernel, shard.scan, concurrently across
// shards under each shard's read lock; the context cancels it between
// segments.
//
// The kernel takes a plan and a visitor. The plan is the query's window,
// filters and Cond, the column projection cold reads decode, and an optional
// seq floor. The walk is fixed: every segment whose time envelope misses the
// [From, To) window is pruned outright — no index consulted, no file opened
// — which keeps small-window queries cheap on a wide history. So is every
// segment or cold file whose source and theme counts name none of the
// sources, or none of the themes, the filter asks for (countsExclude, the
// one check for both forms); no count holds the empty name, so a filter
// naming it prunes nothing. Select's merge opens its cursors by the same
// two checks. A surviving
// cold file is offered to the visitor whole (can its header answer?), then
// chunk by chunk (can this chunk's stats answer?); the runs of chunks left
// over are read back through the chunk cache with the plan's projection and
// each event filtered exactly. The kernel's visitors keep no event, so the
// rows a read builds from cached columns go into one buffer reused read
// after read (persist.RowBuf); the merge's cursors keep theirs and read
// fresh. When the visitor wants whole rows and a theme, source or region
// filter applies, a v3 file is read in two phases: the filter's columns
// first, whole rows only for the stretches that hold a match. A surviving
// in-memory segment is offered whole, then walked over the window's stretch
// of its time index and each event filtered exactly; when the segment is
// sealed, its chunks go through the same chunk walk as a file's (see the
// hot-segment paragraph of the next section). Cold files go
// oldest first, chunks in file order, then segments in creation order, so
// float partials fold in the same order run to run.
//
// The chunk walk is one function for both kinds of unit. visitor.chunk is
// handed a chunk's stats, its earliest event time and its event count —
// never the unit — and answers true when the stats settle the chunk. The
// kernel owns the preconditions: a cold chunk is offered only when it has
// stats and lies wholly past the file's retention skip, a hot chunk only
// from a sealed segment's chunk index, and neither under a seq floor.
//
// The visitors are small. Count's takes a covered cold file's header count
// and a binary-searched slice of a segment's time index when the window is
// the only constraint — touching no event — and otherwise counts matches one
// by one (Cond included) without materializing anything. Aggregate's folds
// matches into per-group partials and answers cold files and chunks from
// their stats under the rules of the next section. View backfill and the
// one-bucket boundary rescan are Aggregate's fan-out, under read locks, that
// also returns each shard's seq cut; the view handoff then folds the tail at
// and above that cut — or a checkpoint's — under the shard's write lock: the
// same kernel and visitor with a seq floor, so files and segments wholly
// below it are skipped and no statistics are trusted. QueryStats reports the
// walk: segments scanned (for the merge, the cursors it opened) and pruned,
// cache hits and misses, files and chunks answered from stats, columns
// skipped and bytes decoded.
//
// # Aggregate pushdown
//
// Aggregate evaluates COUNT/SUM/AVG/MIN/MAX over a named payload field —
// with optional group-by (source, the event's primary theme) and optional
// fixed-width time bucketing — without ever materializing a merged event
// list. Each shard folds its matching events into per-group partial
// aggregates under its read lock; the partials carry count, sum, min and
// max separately (never a derived value), so AVG merges exactly across
// segments and shards, and the per-shard maps merge at the top in shard
// order, keeping float accumulation deterministic for a given store state.
// Contribution semantics over heterogeneous schemas: a bare COUNT counts
// every matching event; COUNT(field) counts events whose value for the
// field is present and non-null (mirroring the streaming COUNT(attr)
// operator); the numeric functions fold only present numeric values, so
// events of schemas lacking the field simply don't contribute. A group row
// exists only when at least one event contributed. MaxGroups (default
// DefaultAggMaxGroups) bounds the result cardinality — the one way an
// aggregation could still blow memory.
//
// Cold segments get a header-only fast path: a segment file whose in-RAM
// envelope fully covers the query is answered from the per-source,
// per-theme and primary-theme counts its header already carries, without
// opening the event block. The coverage rules are strict — bare COUNT
// only; no Region or Cond; the [From, To) window covers every live event
// and, under bucketing, the whole envelope lands in one bucket; source and
// theme never constrained together (headers carry each dimension's counts
// but not the cross); a theme group-by needs the primary-theme stats
// (files from before that header field fall back to reads) and a bare
// theme filter must name a single theme, not the empty one, whose
// ThemeCounts entry is exactly the matchTheme cardinality. Everything the header cannot answer
// falls back to reading just the window-overlapping chunks through the
// chunk cache, bounded by the sparse time index, and filtering exactly —
// so partially-covered boundary files pay chunk reads while interior files
// pay nothing. The model checker's Aggregate op proves the two paths
// indistinguishable, crash/reopen included; QueryStats.ColdHeaderOnly
// counts the segments answered header-only per query.
//
// The sparse index pushes the same idea below the file: each entry
// carries per-chunk stats — the chunk's max event time, per-source,
// per-theme and primary-theme counts, and per-field non-null/numeric
// counts, sum, min and max. A partially-covered file answers each
// wholly-live chunk whose [start, max] time envelope sits inside the query
// window (and, under bucketing, inside one bucket) from those stats alone,
// under the header path's strictness rules applied per chunk — field
// aggregates additionally require the chunk unconstrained by source and
// theme filters and, under grouping, a single group key across the chunk.
// Only the boundary chunks the stats cannot settle are decoded, and chunks
// are folded in file order with stats-answered chunks and decoded runs
// interleaved exactly where they lie, so the result stays byte-identical
// to a full decode. QueryStats.ColdChunkStats and the warehouse-level
// cold_chunk_stats_hits counter count chunks answered without a read;
// BenchmarkAggregatePartialCover holds a partially-covering SUM to
// decoding its boundary chunks only.
//
// Sealed in-memory segments answer chunks from the same stats. A sealed
// segment no longer changes until a retention trim rebuilds it, so the first
// aggregate that walks one over its time index builds a chunk index, the
// in-memory twin of a file's sparse index: one entry per persist.IndexEvery
// events of the time index, with the stats persist.ChunkStatsFor computes
// for a file chunk — one definition for both. The build is lazy and paid
// once per segment: it runs under the shard read lock and publishes through
// an atomic pointer, so two racing builders only duplicate work. It never
// runs on the ingest path, never for select or count, never for the active
// hot or out-of-order segment (appends still reorder its time index), and
// never under a Region or Cond, which no chunk stats describe; such a
// segment folds its window event by event. A source or theme filter is no
// obstacle: the chunk counts resolve it as they do for a file chunk.
// trimOldest, under the write lock, clears the index with the rows it
// rebuilds; the next aggregate builds it afresh. The chunk rules are the
// cold ones, and the unanswered runs fold event by event in time-index
// order.
// QueryStats.HotChunkStats counts the chunks answered per query; it stays off
// the wire (json "-"), so query replies keep their members.
// BenchmarkAggregateBenchShaped gates the events the bench's aggregate shape
// folds one by one per query.
//
// The fold of the events that remain memoizes what consecutive events
// repeat. An aggregate visitor lives for one fold — a shard's scan, or a
// view tap's onCommit — and keeps the aggregated field's slot in the last
// schema it saw (schemas compare by pointer) and the last group an event
// landed in, with that group's source, theme and bucket bounds: the next
// event of the same group reuses it without truncating its time or hashing
// a group key. Groups are only ever added while a visitor folds, so the
// remembered state stays valid.
//
// A chunk is encoded column-wise: timestamps as delta-of-delta varints,
// sequence numbers as deltas, schema/theme/source as chunk-local
// dictionary-coded runs, and payload values as per-position typed columns.
// Readers carry a column projection (persist.Projection), so the chunks
// the stats cannot settle decode only the sections a query touches — a
// single-field SUM reads the time column and that field's column and skips
// the rest, counted by QueryStats.ColdColumnsSkipped/ColdBytesDecoded and
// the warehouse-level cold_columns_skipped counter. Full decodes
// materialize rows directly from the columns (BenchmarkColdDecodeV3 prices
// them and the file size; BenchmarkSelectProjected the projected path).
//
// That is the one segment format (magic SLSEG003). The two row-encoded
// formats older builds wrote are no longer read: persist.OpenSegment refuses
// such a file with an error that names it, so Open fails rather than guess.
// The build before this one rewrote every old file in the background on
// Open, so opening the store once with it converts the directory.
//
// # Retention
//
// SetRetention bounds the store; when exceeded, the globally-oldest events
// (by event time, then insertion Seq) are evicted down to 3/4 of the bound.
// Eviction is apportioned by walking segment time-index prefixes by (time,
// seq) key: a heap of segment cursors, where the coldest cursor takes, by
// binary search, its whole prefix of keys below the next head's key. Where
// heads tie on time that prefix is an appended batch, so the walk moves by
// runs, never by events. A segment consumed in full is dropped whole off the
// cold end — an O(1) unlink with no index rebuild, or a single file delete
// for a spilled segment. Only the segments straddling the cutoff (at most a
// handful, each bounded by SegmentEvents) pay a per-event trim: an index
// rebuild in memory, a logical skip on disk. The cut holds every shard's
// write lock throughout; streamloader_warehouse_retention_cut_seconds
// times each hold.
//
// # Ingest taps and standing views
//
// Every committed append flows through one post-commit tap dispatch: after
// the WAL write and shard visibility, still under the shard's write lock,
// each attached tap consumer sees exactly the events that just became
// visible. The spiller's bookkeeping and view maintenance both ride this
// single hook, so "durable, visible, observed" is one atomic step per
// shard — no consumer can see an event the store would disown after a
// crash, or miss one a concurrent query already returned.
//
// RegisterView turns an AggQuery into a standing, incrementally-maintained
// view: a per-shard tap, attached at registration and detached at
// teardown, folds every matching event into per-shard partial aggregates
// as it commits — O(1) per event, independent of history size and of
// subscriber count. History reaches those partials through one handoff.
// Append and AppendBatch reserve seqs under the shard lock they commit
// under, so a shard's seqNext — one past its highest seq, 0 while it has
// none — is an exclusive commit cut: every seq below it that routes to the
// shard has committed. (Exclusive, because seq 0 is a real seq: "highest
// seq" reads 0 both for an empty shard and for one holding seq 0.) A scan —
// Aggregate's, under read locks — records each shard's cut; then, under the
// shard's write lock, which holds the tap still, the handoff folds the
// events at or above the cut into the scanned partials and installs them. The registration backfill,
// the rebuild after an eviction the trims below cannot patch, and the
// one-bucket rescan are this handoff, and a checkpoint resume is the same
// handoff fed a checkpoint instead of a scan. No history is scanned under a
// write lock, and teardown cancels a scan in flight. Reads
// (View.Rows) merge the per-shard partials with the pushdown's exact merge
// arithmetic, so a view's state equals running Aggregate at the same
// instant — byte-identical up to float addition order, which differs where
// chunk stats settled events on one side and the tap folded them one by one
// on the other; the model checker's Subscribe op asserts exactly that
// at every quiescent point. Identical (query, policy) registrations share
// one view via a refcounted registry.
//
// A bucketed view keeps its partials as per-time-bucket frames
// (internal/partial's bucketed Store) rather than one flat accumulator,
// and a retention cut maintains them in place instead of invalidating the
// view. The eviction prefix property — evicted events form the globally
// smallest (time, seq) prefix — means every frame strictly below the
// cut's bucket B* holds only evicted events and ages out whole, an
// O(frames) map delete. Only the single boundary frame (start == B*) is
// partially evicted, and what it pays depends on the function:
//
//	COUNT/SUM/AVG  subtractable — the evicted boundary events' exact
//	               contribution is subtracted (count and sum are linear);
//	               zero rescans, zero dirty flags.
//	MIN/MAX        not subtractable (an extremum cannot be un-observed) —
//	               the boundary frame alone is queued for a one-bucket
//	               rescan; history below it still drops frame-wise.
//
// A cold file consumed whole by its envelope was never read back; if its
// tail reaches into the boundary frame, that frame's evicted contribution
// is unknown and it falls back to the rescan queue too. Only a degraded
// eviction (an unreadable cold file of uncertain scope) or an unbucketed
// MIN/MAX still sets the full-rebuild dirty flag. Stats counts the work:
// view_frame_drops, view_subtractions, view_boundary_rescans.
//
// Window=<dur> on a bucketed AggQuery makes the view a sliding window:
// Rows filters frames whose bucket end has fallen behind now-window at
// merge time (so a reader never sees an expired bucket), and the
// publisher physically prunes expired frames on its cadence — old buckets
// drop by construction, no retention cut needed. Window requires Bucket.
//
// A durable warehouse also checkpoints view state (view_ckpt.go): every
// Config.ViewCheckpointEvery mutations, and on clean close/release, the
// per-shard frames plus each shard's seq cut are published at
// <dataDir>/views/<hash>.ckpt by persist.PublishFile, like every other
// artifact. Re-registering the same (query, policy) — a restart, an SSE
// client reconnecting — hands the checkpoint to the handoff in place of a
// scan: only the events at or above its cuts are folded, and cold files and
// segments it covers are skipped unread. A fingerprint of the manifest's
// cut frontier and eviction counter gates the resume: any eviction since
// the checkpoint was taken changes it and the resume is rejected (the
// frames would still carry evicted events), falling back to the ordinary
// backfill — rejection is always safe, acceptance requires the exact
// manifest state. The eviction count is read with the fingerprint, so a
// cut landing mid-resume makes the handoff refuse too. The write itself
// re-checks the dirty flag and the rescan queue after snapshotting, so a
// cut racing the checkpoint can only force that safe rejection, never a
// wrong accept; and a torn-down view writes none, since without its taps
// its frames would fall behind its cuts. Stats counts view_checkpoints and
// view_resumes; the view test suite proves a trimmed view equals a full
// rebuild and a resumed view equals a cold backfill, and the model
// checker replays all of it against a naive reference, crashes included.
//
// Subscribe attaches a bounded-buffer subscriber fed by the view's single
// publisher goroutine; the update policy (ops.UpdatePolicy — the paper's
// trigger vocabulary applied to publication: per event, fixed interval, or
// every N events) gates when snapshots go out. Updates are full snapshots,
// latest-wins: a slow consumer's oldest buffered update is dropped and the
// next delivery marked as a resnapshot (Shed counts the losses), so
// backpressure costs a laggard freshness, never correctness, and never
// blocks ingest or other subscribers. The HTTP layer serves this as
// GET /api/warehouse/subscribe (SSE or NDJSON). BenchmarkViewFanout holds
// per-event maintenance flat from 1 to 5000 subscribers with ingest p99
// within 1.2x of the bare store.
//
// # Durability & tiering
//
// Open with Config.DataDir builds the durable warehouse over the
// internal/persist subsystem; everything else above still holds, and nil
// DataDir keeps the store purely in-memory.
//
// Ingest durability comes from a per-shard write-ahead log: Append and
// AppendBatch frame each shard sub-batch as one CRC-checked record and
// write it before the events become visible, so a nil return means the
// batch survives a process crash. Config.Sync picks the fsync policy that
// makes it survive a machine crash too:
//
//   - SyncAlways fsyncs each shard sub-batch before the ack, under the
//     shard write lock.
//   - SyncInterval, the default, leaves the commit path alone: one
//     background goroutine fsyncs each shard WAL Config.SyncEvery after the
//     first append since its last fsync, holding no shard lock
//     (walsync.go). An acked batch is on disk within about one period,
//     whether or not more ingest follows it. A failed fsync is logged once,
//     and that shard's appends fail from then on: the kernel may have
//     dropped the pages, so nothing is acked past it.
//   - SyncNever leaves the log to the OS page cache.
//
// Capacity beyond RAM comes from spilling: once a shard holds more than
// Config.HotSegments sealed in-memory segments, the oldest are flushed to
// immutable segment files — events in (time, seq) order behind a header
// carrying the time/seq envelope, per-source and per-theme counts, a
// schema dictionary and a sparse time index. Only that envelope stays in
// RAM. Queries treat cold segments like hot ones: envelope pruning first
// (most disk segments are never opened), then a chunked read of just the
// window-overlapping stretch of the file. Spilling also checkpoints the
// WAL: log files whose every record is spilled or evicted are deleted
// whole.
//
// Everything that is not the log — segment files, the manifest, view
// checkpoints — reaches disk through one function, persist.PublishFile:
// temp file, fsync, rename, directory fsync. A crash leaves the old file or
// the new one, and a nil return means the new one survives a crash. After
// Open, every manifest save goes through Warehouse.saveManifest (caller
// holds retMu), which stamps the seq high-water mark and publishes; when it
// returns nil the cut, the compaction record or the view definition it
// carries is on disk, which is what lets a retention cut drop files and a
// compaction delete its victims afterwards. A save that fails is logged and
// counted in Stats.ManifestSaveErrors
// (streamloader_warehouse_manifest_save_errors_total). Recording a
// compaction treats the failure as fatal to that compaction, which is
// abandoned with the store untouched. The three callers that carry on — a
// retention cut (eviction proceeds; after a crash the events come back and
// the next cut evicts them again), retiring a finished compaction's record
// (the next Open re-runs its idempotent deletions) and recording a view
// definition (the view works without it) — have no other way to report
// it: the counter and the log line are where such a failure shows.
//
// # The spill pipeline
//
// Segment flushes never run on the append path. A shard over its hot
// budget marks its oldest sealed segments and hands them to a per-warehouse
// background spill worker; the append returns immediately. The worker
// snapshots the segment under the shard lock (a reference copy, no
// encoding), writes and fsyncs the segment file with no lock held, then
// briefly re-acquires the lock to validate the segment is unchanged, swap
// it for its cold envelope and checkpoint the WAL. Readers see the segment
// as hot until that swap, so a query observes identical results before,
// during and after a spill; if retention trimmed or dropped the segment
// while its file was in flight, the stale file is deleted and the swap
// abandoned. Tune -hot-segments (Config.HotSegments) to bound how much
// sealed history each shard keeps in RAM: a small budget spills
// aggressively and leans on the cold-read path, a large one trades memory
// for all-RAM queries; negative disables spilling entirely (WAL-only
// durability). The spiller and the compactor are two instances of one
// worker type (worker.go: queue, in-flight count, close = finish the queue,
// abort = stop as a crash would), on two goroutines so a compaction never
// sits in front of a spill. The spill queue is bounded: when sustained ingest outruns
// the disk, appends throttle — off-lock, after the ack, without blocking
// readers or other shards — until the worker catches up, so the pipeline
// holds at most a few segments per shard beyond the hot budget instead of
// queueing without limit. DrainSpills blocks until the queue is empty, and
// Close drains it before closing the WALs.
//
// Crash semantics mid-spill: every step is idempotent. A crash before the
// file write loses nothing — the segment's WAL records replay on Open. A
// crash after the file is published but before the swap leaves the same
// events in both the file and the log; recovery registers the file and
// dedupes the WAL against its sequence block, and a duplicate snapshot of
// an already-registered segment (possible when a crashed spill is retried)
// is detected the same way and deleted. A crash after the swap but before
// the WAL checkpoint merely delays the log-file deletion to the next
// checkpoint. No acked event is lost or duplicated in any interleaving —
// the model checker's CrashMidSpill op exercises exactly this window.
//
// # Background compaction
//
// Side spills of straggler segments and retention trims leave shards with
// small cold files, or files overlapping by (time, seq) key, which tax
// every query's pruning pass and defeat envelope-based fast paths. A
// per-warehouse background compactor (Config.CompactBelow — the file size
// in events below which a file wants merging; 0 means SegmentEvents/2,
// negative disables) watches each shard after spills and retention cuts.
// It picks runs of adjacent cold files, in head key order, where every
// neighbor join is justified — one side under the threshold, or the two
// overlapping by (time, seq) key — capped at 8 input files and 2x
// SegmentEvents output events. Full-size files in order are never
// rewritten: two neighbours that only share a boundary event time (every
// file of a minute-granularity stream does) stay as they are. Each run
// merges into one sorted file under the spiller's write→validate→swap
// discipline: live events only (logical skips are dropped for good) are
// read and written off-lock under a freshly reserved generation. The
// install holds retMu, which keeps retention out, and takes the shard lock
// only briefly: a read lock to revalidate every victim (retention touched
// one in flight → the merged file is deleted and the merge abandoned),
// then, after the record is saved with no shard lock held, the write lock
// for the swap. The victims' files are deleted after the swap, again
// off-lock.
// Crash safety hinges on a manifest CompactionRecord written before the
// victim files are deleted and retired after: recovery finding a record
// with the merged file on disk deletes whatever victims survive
// (idempotent across repeated crashes), while a crash before the record
// leaves the merged file to be caught by the normal duplicate-sequence
// pass and deleted, un-doing the compaction wholesale. Either way exactly
// one copy of every event remains. The model checker injects CompactNow
// between ops to prove compaction observationally invisible under crashes,
// reopens and retention. Stats counts compactions and segments_compacted;
// CompactNow runs a synchronous pass for tests and tooling.
//
// # The cold-read chunk cache
//
// Cold reads go through a warehouse-wide LRU of decoded event chunks,
// keyed by (segment file, chunk) and budgeted by -cold-cache-bytes
// (Config.ColdCacheBytes, default 64 MiB of encoded bytes; negative
// disables it). Repeated window queries over the same spilled history hit
// RAM instead of re-reading and re-decoding files — cache-warm spilled
// selects land within ~1.2x of hot-segment selects versus ~5x uncached
// (BenchmarkSelectColdCached against BenchmarkSelectColdVsHot). Segment files are immutable and file names are
// never reused, so entries cannot go stale; deleting a cold file
// invalidates its chunks eagerly. Misses read each contiguous run of
// missing chunks with a single pread into pooled buffers, so even the
// uncached path allocates O(1) beyond the decoded events.
//
// An entry holds its chunk in one decoded form. A read under the full
// projection (every select, and any query with a Cond) decodes straight to
// rows, and the rows are the entry: later reads of the chunk — full or
// projected, the whole chunk or a few events at a window's edge — are
// slices of them, never rebuilt. A chunk that only projected reads
// (aggregates, counts) have touched is held as the columns they decoded,
// widened by merging when another projection needs more, and replaced by
// rows the first time a full read arrives. The budget counts encoded
// bytes, which are known before anything is decoded; what the entries
// hold is reported beside it. Rows are 128 B an event plus 32 B a payload
// value (stt.Value), about 4.8x the encoded bytes on the default fleet
// (215 B against 44.5 B an event): a full 64 MiB budget holds roughly
// 310 MiB of rows, and the collector's headroom comes on top (see README,
// "Build and run").
// BenchmarkColdCacheFootprint fails CI if an entry holds a second form
// again or a repeat sweep decodes a byte.
//
// Cache telemetry flows as cold_cache_hits/misses/bytes/held_bytes in
// Stats (streamloader_warehouse_cold_cache_bytes and
// _cold_cache_held_bytes on /metrics) and per-query in QueryStats (the
// "segments" object of GET /api/warehouse/query).
//
// Open recovers a previous incarnation from its directory: spilled
// segments are re-registered from their headers, the WAL tail is replayed
// into fresh hot segments (skipping events already in segment files, and
// truncating a torn tail at the first bad frame), and appends resume with
// the sequence counter past everything recovered. The manifest's retention
// cuts — each compaction's (time, seq) watermark paired with the per-shard
// log positions and spill generations it saw, kept as a frontier so a
// later compaction with a lower cut never widens an older one's scope —
// keep evicted events from resurrecting out of the log while stragglers
// that arrived after a cut survive it. The manifest also carries the seq
// high-water mark (max_seq), stamped at every cut and compaction save:
// surviving events alone can under-count the counter when the highest seq
// was spilled, WAL-checkpointed, then deleted wholesale by a retention
// cut, and re-deriving from survivors would hand the same sequence to a
// post-crash append. Stats reports the durable footprint:
// segments_cold/segments_spilled, wal_bytes, disk_bytes and
// recovered_events.
package warehouse
