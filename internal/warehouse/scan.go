package warehouse

import (
	"container/heap"
	"context"
	"sort"
	"sync"
	"time"

	"streamloader/internal/obs"
	"streamloader/internal/persist"
)

// scanPlan is what one shard-local scan evaluates: the query (window,
// filters, Cond; Limit is the visitor's business) plus how to read it.
type scanPlan struct {
	Query
	// proj names the columns the visitor and the filter read off a cold
	// event; nothing else is decoded.
	proj persist.Projection
	// minSeq restricts the scan to events with Seq >= minSeq — the view
	// handoff's tail fold; set it through since. Files and segments wholly
	// below it are skipped. Header, chunk and index statistics know nothing
	// of seqs, so a positive floor also makes every shortcut illegal.
	minSeq uint64
}

// since returns the plan restricted to the events with Seq >= next, the
// tail from an exclusive cut; telling them apart needs the seq column.
func (pl scanPlan) since(next uint64) scanPlan {
	pl.minSeq = next
	pl.proj.Mask |= persist.ColSeq
	return pl
}

// projection names the columns matchEvent reads for this query: the time
// always, geo only under a Region, theme and source only when filtered on.
// A payload condition reads everything — it can reference any field.
func (q *Query) projection() persist.Projection {
	if q.Cond != "" {
		return persist.FullProjection
	}
	proj := persist.Projection{Mask: persist.ColTime}
	if q.Region != nil {
		proj.Mask |= persist.ColGeo
	}
	if len(q.Themes) > 0 {
		proj.Mask |= persist.ColTheme
	}
	if len(q.Sources) > 0 {
		proj.Mask |= persist.ColSource
	}
	return proj
}

// visitor is what a scan feeds: select collects, count counts, aggregate
// folds. The shortcuts let a visitor answer a whole unit, or one chunk of
// it, from statistics instead of its events — true means answered, and the
// kernel moves on without reading what was answered.
type visitor interface {
	// file may answer a whole cold file from its envelope and header counts.
	file(cs *coldSegment) (bool, error)
	// chunk may answer one chunk of n events, the earliest at minTime, from
	// its stats. The kernel offers a chunk only when its stats describe
	// exactly the events the visitor would otherwise see: a cold file's
	// chunks wholly past the retention skip, and the chunks of a sealed
	// in-memory segment's chunk index. The chunk may straddle the query
	// window; answering it is the visitor's call.
	chunk(st *persist.ChunkStats, minTime time.Time, n int) (bool, error)
	// hotChunks reports whether chunk could answer anything of this plan, so
	// a sealed in-memory segment's chunk index is worth building.
	hotChunks() bool
	// segment may answer an in-memory segment from its time index.
	segment(g *segment) bool
	// event takes one matching event.
	event(ev Event) error
	// done finishes the shard-local result once the scan succeeded and
	// reports its size (the shard span's "events" attribute).
	done() int
}

// noShortcuts is embedded by visitors that lack some or all shortcuts.
type noShortcuts struct{}

func (noShortcuts) file(*coldSegment) (bool, error)                         { return false, nil }
func (noShortcuts) chunk(*persist.ChunkStats, time.Time, int) (bool, error) { return false, nil }
func (noShortcuts) hotChunks() bool                                         { return false }
func (noShortcuts) segment(*segment) bool                                   { return false }

// scanner is the state of one shard-local scan.
type scanner struct {
	pl    *scanPlan
	v     visitor
	conds condCache
	qs    QueryStats
	// rows, when set, holds the events every cold read builds from cached
	// columns, reused read after read: only for visitors that keep no event.
	rows *persist.RowBuf
}

// rowBufs recycles the row storage of the kernel's scans, whose visitors
// fold or count events and keep none.
var rowBufs = sync.Pool{New: func() any { return new(persist.RowBuf) }}

// scan is the one walk every query, view scan and view tail fold takes
// through a shard: segments and cold files whose time envelope misses the
// window, or whose source and theme counts name nothing the filter asks for
// (countsExclude), are pruned without opening a file; a surviving cold file
// is offered to the visitor whole, then chunk by chunk, and only the runs
// of chunks left unanswered are read back, with the plan's projection, and
// filtered exactly; a surviving in-memory segment is offered whole, then
// walked over the window's stretch of its time index. A sealed segment's
// chunks are offered too, through the same chunk walk as a file's, and only
// the unanswered runs are filtered. Visit order is fixed — cold files
// oldest first, chunks in file order, then segments in creation order — so
// float partials fold in the same order run to run. The context is checked
// before each file and segment. Caller holds s.mu; read suffices.
func (s *shard) scan(ctx context.Context, pl *scanPlan, v visitor) (QueryStats, error) {
	sc := scanner{pl: pl, v: v, conds: condCache{}, rows: rowBufs.Get().(*persist.RowBuf)}
	defer rowBufs.Put(sc.rows)
	for _, cs := range s.cold {
		if err := ctx.Err(); err != nil {
			return sc.qs, err
		}
		if cs.prunedBy(pl.From, pl.To) || cs.seqHi < pl.minSeq || countsExclude(&pl.Query, cs.sourceCounts, cs.themeCounts) {
			sc.qs.SegmentsPruned++
			continue
		}
		sc.qs.SegmentsScanned++
		if err := sc.cold(cs); err != nil {
			return sc.qs, err
		}
	}
	for _, seg := range s.segs {
		if err := ctx.Err(); err != nil {
			return sc.qs, err
		}
		if seg.prunedBy(pl.From, pl.To) || seg.maxSeq < pl.minSeq || countsExclude(&pl.Query, seg.sources, seg.themes) {
			sc.qs.SegmentsPruned++
			continue
		}
		sc.qs.SegmentsScanned++
		if pl.minSeq == 0 && v.segment(seg) {
			continue
		}
		lo, hi := seg.timeBounds(pl.From, pl.To)
		read := func(a, b int) error {
			for _, ord := range seg.byTime[a:b] {
				if err := sc.visit(seg.events[ord]); err != nil {
					return err
				}
			}
			return nil
		}
		var err error
		if pl.minSeq == 0 && seg != s.hot && seg != s.ooo && v.hotChunks() {
			err = sc.chunks(seg.chunkIndex(), seg.len(), 0, lo, hi, &sc.qs.HotChunkStats, read)
		} else {
			err = read(lo, hi)
		}
		if err != nil {
			return sc.qs, err
		}
	}
	return sc.qs, nil
}

// cold walks one cold file that survived envelope pruning.
func (sc *scanner) cold(cs *coldSegment) error {
	pl := sc.pl
	if pl.minSeq == 0 {
		answered, err := sc.v.file(cs)
		if err != nil {
			return err
		}
		if answered {
			sc.qs.ColdHeaderOnly++
			return nil
		}
	}
	if cs.loaded != nil {
		// A retention cut already paid for the full load.
		for _, ev := range cs.loaded {
			if err := sc.visit(ev); err != nil {
				return err
			}
		}
		return nil
	}
	lo, hi := cs.window(pl.From, pl.To)
	if lo >= hi {
		return nil
	}
	read := sc.reader()
	return sc.chunks(cs.info.Sparse, cs.info.Count, cs.skip, lo, hi, &sc.qs.ColdChunkStats, func(a, b int) error {
		return read(cs, a, b)
	})
}

// chunks is the one chunk walk, over a cold file's sparse index or a sealed
// segment's chunk index alike: chunk k holds ordinals [sparse[k].Pos,
// sparse[k+1].Pos), the last one up to n. Each chunk overlapping [lo, hi)
// is offered to the visitor — unless it has no stats, reaches below skip
// (a retention cut evicted part of it) or the plan has a seq floor, which no
// stats know of — and answered chunks count in hits. The chunks left
// unanswered split the window into runs; each run goes to read as one
// stretch, in order, so the fold order is that of reading everything.
func (sc *scanner) chunks(sparse []persist.SparseEntry, n, skip, lo, hi int, hits *int, read func(a, b int) error) error {
	runStart := -1
	for k, e := range sparse {
		start, end := e.Pos, n
		if k+1 < len(sparse) {
			end = sparse[k+1].Pos
		}
		if end <= lo {
			continue
		}
		if start >= hi {
			break
		}
		answered := false
		if e.Stats != nil && start >= skip && sc.pl.minSeq == 0 {
			var err error
			if answered, err = sc.v.chunk(e.Stats, e.Time, end-start); err != nil {
				return err
			}
		}
		if !answered {
			if runStart < 0 {
				runStart = max(start, lo)
			}
			continue
		}
		*hits++
		if runStart >= 0 {
			if err := read(runStart, start); err != nil {
				return err
			}
			runStart = -1
		}
	}
	if runStart >= 0 {
		return read(runStart, hi)
	}
	return nil
}

// reader picks how a run of a cold file is read. A select wants whole rows;
// when a column filter can reject events on its own, it decodes only the
// filter's columns first and whole rows only where something matched.
func (sc *scanner) reader() func(cs *coldSegment, a, b int) error {
	pl := sc.pl
	if pl.proj == persist.FullProjection && pl.Cond == "" &&
		(len(pl.Themes) > 0 || len(pl.Sources) > 0 || pl.Region != nil) {
		return sc.readMatchingRuns
	}
	return sc.readRun
}

// readRun decodes the plan's projected columns of event ordinals [a, b) of
// a cold file and visits each event.
func (sc *scanner) readRun(cs *coldSegment, a, b int) error {
	evs, err := sc.read(cs, a, b, sc.pl.proj, sc.rows)
	if err != nil {
		return err
	}
	for _, ev := range evs {
		if err := sc.visit(ev); err != nil {
			return err
		}
	}
	return nil
}

// readMatchingRuns is readRun in two phases: decode only the filter's
// columns of [a, b), then readRun the stretches holding a match. Matching
// ordinals closer than gap coalesce into one stretch: a break costs a
// chunk-cache lookup, not a pread.
func (sc *scanner) readMatchingRuns(cs *coldSegment, a, b int) error {
	const gap = 32
	// Fresh rows: the runs read below reuse sc.rows while these are walked.
	evs, err := sc.read(cs, a, b, sc.pl.projection(), nil)
	if err != nil {
		return err
	}
	runStart, runEnd := 0, 0
	for i, ev := range evs {
		if ok, _ := matchEvent(ev, &sc.pl.Query, nil); !ok { // Cond is empty here
			continue
		}
		ord := a + i
		if runEnd > runStart && ord-runEnd <= gap {
			runEnd = ord + 1
			continue
		}
		if err := sc.readRun(cs, runStart, runEnd); err != nil {
			return err
		}
		runStart, runEnd = ord, ord+1
	}
	return sc.readRun(cs, runStart, runEnd)
}

// read is the one place a query touches a cold file's event block, through
// the warehouse chunk cache when one is configured; rows built from cached
// columns go into buf when it is set.
func (sc *scanner) read(cs *coldSegment, a, b int, proj persist.Projection, buf *persist.RowBuf) ([]Event, error) {
	if a >= b {
		return nil, nil
	}
	t0 := cs.readHist.Start()
	evs, rs, err := cs.info.ReadRangeInto(cs.cache, a, b, proj, buf)
	cs.readHist.Since(t0)
	sc.qs.ColdCacheHits += rs.CacheHits
	sc.qs.ColdCacheMisses += rs.CacheMisses
	sc.qs.ColdColumnsSkipped += rs.ColumnsSkipped
	sc.qs.ColdBytesDecoded += rs.BytesDecoded
	return evs, err
}

// visit filters one candidate exactly and hands a match to the visitor.
func (sc *scanner) visit(ev Event) error {
	if ev.Seq < sc.pl.minSeq {
		return nil
	}
	ok, err := matchEvent(ev, &sc.pl.Query, sc.conds)
	if err != nil || !ok {
		return err
	}
	return sc.v.event(ev)
}

// add folds one shard's counters into the query total.
func (qs *QueryStats) add(o QueryStats) {
	qs.SegmentsScanned += o.SegmentsScanned
	qs.SegmentsPruned += o.SegmentsPruned
	qs.ColdCacheHits += o.ColdCacheHits
	qs.ColdCacheMisses += o.ColdCacheMisses
	qs.ColdHeaderOnly += o.ColdHeaderOnly
	qs.ColdChunkStats += o.ColdChunkStats
	qs.ColdColumnsSkipped += o.ColdColumnsSkipped
	qs.ColdBytesDecoded += o.ColdBytesDecoded
	qs.HotChunkStats += o.HotChunkStats
}

// shardCut is what one shard's scan saw of it: the shard, its seqNext (an
// exclusive commit cut, so the scan holds exactly the events below it) and
// the warehouse eviction count, which only moves under every shard lock — a
// different count later means a retention cut landed since.
type shardCut struct {
	shard     int
	next, gen uint64
}

// scanShards is the fan-out the three query entry points and the view scans
// share: one fresh visitor per shard the query routes to, scanned
// concurrently under each shard's read lock, with a "shard" span each when
// ctx carries a trace. The visitors and the cuts their scans ran at come
// back in shard order, so merges are deterministic.
func scanShards[V visitor](ctx context.Context, w *Warehouse, pl *scanPlan, newVisitor func() V) ([]V, []shardCut, QueryStats, error) {
	tr := obs.TraceFrom(ctx)
	shards := w.routedShards(pl.Query)
	vs := make([]V, len(shards))
	cuts := make([]shardCut, len(shards))
	stats := make([]QueryStats, len(shards))
	errs := make([]error, len(shards))
	forEachShard(shards, func(i int, s *shard) {
		sp := tr.Start("shard")
		sp.SetInt("shard", int64(s.idx))
		vs[i] = newVisitor()
		s.mu.RLock()
		cuts[i] = shardCut{shard: s.idx, next: s.seqNext, gen: w.evicted.Load()}
		stats[i], errs[i] = s.scan(ctx, pl, vs[i])
		s.mu.RUnlock()
		events := 0
		if errs[i] == nil {
			events = vs[i].done()
		}
		endShardSpan(sp, stats[i], events)
	})
	var qs QueryStats
	for _, st := range stats {
		qs.add(st)
	}
	w.chunkStatsHits.Add(uint64(qs.ColdChunkStats))
	w.columnsSkipped.Add(uint64(qs.ColdColumnsSkipped))
	for _, err := range errs {
		if err != nil {
			return nil, nil, qs, err
		}
	}
	return vs, cuts, qs, nil
}

// endShardSpan closes a per-shard span with the shard's scan telemetry.
func endShardSpan(sp *obs.Span, qs QueryStats, events int) {
	if sp == nil {
		return
	}
	sp.SetInt("events", int64(events))
	sp.SetInt("segments_scanned", int64(qs.SegmentsScanned))
	sp.SetInt("segments_pruned", int64(qs.SegmentsPruned))
	sp.SetInt("cold_cache_hits", int64(qs.ColdCacheHits))
	sp.SetInt("cold_cache_misses", int64(qs.ColdCacheMisses))
	if qs.ColdHeaderOnly > 0 {
		sp.SetInt("cold_header_only", int64(qs.ColdHeaderOnly))
	}
	if qs.ColdChunkStats > 0 {
		sp.SetInt("cold_chunk_stats_hits", int64(qs.ColdChunkStats))
	}
	if qs.ColdColumnsSkipped > 0 {
		sp.SetInt("cold_columns_skipped", int64(qs.ColdColumnsSkipped))
	}
	if qs.ColdBytesDecoded > 0 {
		sp.SetInt("cold_bytes_decoded", qs.ColdBytesDecoded)
	}
	sp.End()
}

// mergeShards is the walk of Select and of a limited Count: one lazy k-way
// merge, in (time, seq) order, over a cursor per cold file and per hot
// segment of every routed shard the window reaches. It hands each match to
// emit in that order and stops once limit matches are out (limit <= 0: all
// of them). It emits in runs: the top cursor goes on while its head is
// below the runner-up's, and the heap is fixed once per run. A cold cursor
// decodes one chunk at a time, and only when it tops the heap, so a file or
// chunk the page never reaches is never read. The routed shards stay
// read-locked for the whole merge, taken in shard-index order — the order
// every multi-shard locker uses. The context is checked before each chunk
// read. When ctx carries a trace the call records a "shard" span per routed
// shard, with the telemetry its cursors paid, and a "merge" span, which
// counts the events emitted and the heap fixes paid.
func mergeShards(ctx context.Context, w *Warehouse, pl *scanPlan, limit int, emit func(Event)) (QueryStats, error) {
	if err := ctx.Err(); err != nil {
		return QueryStats{}, err
	}
	tr := obs.TraceFrom(ctx)
	shards := w.routedShards(pl.Query)
	for _, s := range shards {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	parts := make([]mergeShard, len(shards))
	var h cursorHeap[*mergeCursor]
	for i, s := range shards {
		ms := &parts[i]
		ms.sp = tr.Start("shard")
		ms.sp.SetInt("shard", int64(s.idx))
		ms.sc = scanner{pl: pl, conds: condCache{}}
		h = ms.open(s, h)
	}
	heap.Init(&h)
	msp := tr.Start("merge")
	n, fixes := 0, 0
	var err error
	for len(h) > 0 && (limit <= 0 || n < limit) && err == nil {
		// One run: the top cursor steps while its head is below the
		// runner-up's, with one key compare per step.
		c := h[0]
		bound, alone := h.runnerUp()
		for {
			if c.next < len(c.buf) {
				emit(c.buf[c.next])
				c.next++
				c.ms.events++
				n++
			} else {
				err = c.fill(ctx)
			}
			if !c.advance() {
				heap.Pop(&h)
				break
			}
			if err != nil || (limit > 0 && n >= limit) || !(alone || c.key.Less(bound)) {
				heap.Fix(&h, 0)
				fixes++
				break
			}
		}
	}
	msp.SetInt("events", int64(n))
	msp.SetInt("heap_fixes", int64(fixes))
	msp.End()
	var qs QueryStats
	for i := range parts {
		endShardSpan(parts[i].sp, parts[i].sc.qs, parts[i].events)
		qs.add(parts[i].sc.qs)
	}
	w.columnsSkipped.Add(uint64(qs.ColdColumnsSkipped))
	return qs, err
}

// mergeShard is one routed shard's part of a merge: the scanner its cursors
// read and filter through (its stats and condition cache), its span and the
// matches it contributed.
type mergeShard struct {
	sc     scanner
	sp     *obs.Span
	events int
}

// open pushes a cursor for every cold file and hot segment of s that
// neither the window nor the counts prune, counting the rest as pruned. A
// cold cursor starts unread at the later of the file's live head and the
// window start, a lower bound on its first match; a hot cursor at the
// window's start in the segment's time index. Caller holds s.mu.
func (ms *mergeShard) open(s *shard, h cursorHeap[*mergeCursor]) cursorHeap[*mergeCursor] {
	pl, qs := ms.sc.pl, &ms.sc.qs
	for _, cs := range s.cold {
		if cs.prunedBy(pl.From, pl.To) || countsExclude(&pl.Query, cs.sourceCounts, cs.themeCounts) {
			qs.SegmentsPruned++
			continue
		}
		qs.SegmentsScanned++
		lo, hi := cs.window(pl.From, pl.To)
		sparse := cs.info.Sparse
		c := &mergeCursor{ms: ms, cs: cs, pos: lo, hi: hi, key: cs.head,
			k: sort.Search(len(sparse), func(k int) bool { return sparse[k].Pos > lo }) - 1}
		if from := (persist.Key{Time: pl.From}); c.key.Less(from) {
			c.key = from
		}
		if c.advance() {
			h = append(h, c)
		}
	}
	for _, seg := range s.segs {
		if seg.prunedBy(pl.From, pl.To) || countsExclude(&pl.Query, seg.sources, seg.themes) {
			qs.SegmentsPruned++
			continue
		}
		qs.SegmentsScanned++
		lo, hi := seg.timeBounds(pl.From, pl.To)
		if c := (&mergeCursor{ms: ms, seg: seg, pos: lo, hi: hi}); c.advance() {
			h = append(h, c)
		}
	}
	return h
}

// mergeCursor walks one cold file or one hot segment in (time, seq) order,
// holding the matches of its last read in buf from next on. key is the next
// match's key while buf holds one, else a lower bound on it.
type mergeCursor struct {
	noShortcuts
	ms   *mergeShard
	key  persist.Key
	buf  []Event
	next int

	// The cursor reads ordinals [pos, hi): of a cold file, chunk k holding
	// pos, or of a hot segment's time index.
	cs         *coldSegment
	seg        *segment
	k, pos, hi int
}

func (c *mergeCursor) head() persist.Key { return c.key }

// event takes a match of the cursor's current read; the cursor is its
// shard scanner's visitor while it reads.
func (c *mergeCursor) event(ev Event) error {
	c.buf = append(c.buf, ev)
	return nil
}

func (c *mergeCursor) done() int { return len(c.buf) }

// fill reads the cursor's next stretch into buf: one chunk of a cold file,
// or a hot segment's time index up to its next match.
func (c *mergeCursor) fill(ctx context.Context) error {
	c.buf, c.next = c.buf[:0], 0
	sc := &c.ms.sc
	sc.v = c
	if c.seg != nil {
		for ; len(c.buf) == 0 && c.pos < c.hi; c.pos++ {
			if err := sc.visit(c.seg.events[c.seg.byTime[c.pos]]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, end := c.cs.info.ChunkRange(c.k)
	a, b := c.pos, min(end, c.hi)
	c.pos, c.k = b, c.k+1
	if loaded := c.cs.loaded; loaded != nil {
		// A retention cut already paid for the full load.
		for _, ev := range loaded[a-c.cs.skip : b-c.cs.skip] {
			if err := sc.visit(ev); err != nil {
				return err
			}
		}
		return nil
	}
	return sc.reader()(c.cs, a, b)
}

// advance sets key for what the cursor holds next: the key of its next
// buffered match, else of its next hot event, else the later of the last
// key and the next chunk's first event time — a bound on all the chunk
// holds, known without reading it. It reports false once the cursor has
// nothing left.
func (c *mergeCursor) advance() bool {
	switch {
	case c.next < len(c.buf):
		c.key = eventKey(c.buf[c.next])
	case c.pos >= c.hi:
		return false
	case c.seg != nil:
		c.key = eventKey(c.seg.events[c.seg.byTime[c.pos]])
	case c.key.Time.Before(c.cs.info.Sparse[c.k].Time):
		// Time is enough: Seq 0 is the lowest key at the chunk's start time.
		c.key = persist.Key{Time: c.cs.info.Sparse[c.k].Time}
	}
	return true
}
