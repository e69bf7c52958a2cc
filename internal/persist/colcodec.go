package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
	"unsafe"

	"streamloader/internal/stt"
)

// The columnar chunk codec (segment format v3; segment.go documents the
// file around the chunks). Every column is a length-prefixed section, so a
// reader can skip the columns a query does not touch (projected decode) by
// advancing over the prefix instead of parsing the bytes. Section order
// within a chunk:
//
//	sec     event-time seconds: first raw, then delta-of-delta zigzag varints
//	nanos   event-time nanoseconds: one varint per event (-1 = the zero time)
//	seq     warehouse seqs: first raw uvarint, then zigzag varint deltas
//	schema  schema-dictionary ids, run-length encoded (id, run) pairs
//	lat     8-byte little-endian float64 per event
//	lon     8-byte little-endian float64 per event
//	theme   chunk-local string dictionary + RLE (index, run) pairs
//	source  chunk-local string dictionary + RLE (index, run) pairs
//	tseq    tuple seqs, encoded like seq
//	nvals   payload value counts, RLE (count, run) pairs
//	val[p]  one section per payload position p: string dictionary, RLE
//	        (kind, run) pairs, then the payloads of every event carrying
//	        at least p+1 values, in event order
//
// Events are (time, seq)-sorted, which makes the second-order time deltas
// and the seq deltas tiny, and sensor streams repeat sources, themes and
// string payloads heavily, which the dictionaries collapse. The schema and
// nvals columns are always decoded (they shape the tuple); everything else
// decodes only when the projection asks for it.

// ColumnMask selects which event columns a projected read materializes.
// The schema and value-count columns are always decoded — they cost a few
// RLE pairs and every materialized tuple needs them.
type ColumnMask uint16

const (
	// ColTime materializes the event time.
	ColTime ColumnMask = 1 << iota
	// ColSeq materializes the warehouse and tuple sequence numbers.
	ColSeq
	// ColGeo materializes Lat and Lon.
	ColGeo
	// ColTheme materializes the primary theme tag.
	ColTheme
	// ColSource materializes the source id.
	ColSource
	// ColValues materializes every payload value column; see also
	// Projection.Field for a single named field.
	ColValues

	// ColAll materializes the full event.
	ColAll = ColTime | ColSeq | ColGeo | ColTheme | ColSource | ColValues
)

// Projection names the columns one read needs. The zero Projection decodes
// nothing but the structural columns; FullProjection decodes everything.
// When Field is non-empty (and ColValues is unset), only the value columns
// holding that field's payloads — resolved per schema — are decoded;
// every other event's value at the same positions comes along for free,
// and the remaining positions stay null.
type Projection struct {
	Mask  ColumnMask
	Field string
}

// FullProjection decodes every column.
var FullProjection = Projection{Mask: ColAll}

// full reports whether the projection decodes the entire chunk.
func (p Projection) full() bool { return p.Mask&ColAll == ColAll }

// section ids, in on-disk order. Value sections follow secNVals.
const (
	secTimeSec = iota
	secTimeNanos
	secSeq
	secSchema
	secLat
	secLon
	secTheme
	secSource
	secTupleSeq
	secNVals
	numFixedSections
)

// appendSection appends one length-prefixed column section.
func appendSection(b, payload []byte) []byte {
	b = appendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// colScratch is the column encoder's working memory, reused from column to
// column and chunk to chunk: the column buffer, one string column's values,
// and the string dictionary with what it resolves.
type colScratch struct {
	col   []byte
	strs  []string          // a theme or source column, in event order
	ids   map[string]uint64 // string → dictionary id
	order []string          // the dictionary, in first-use order
	refs  []uint64          // dictionary ids in use order, or (id, run) pairs
	kinds []uint64          // a value column's (kind, run) pairs
}

// resetDict empties the string dictionary for the next column.
func (sc *colScratch) resetDict() {
	if sc.ids == nil {
		sc.ids = map[string]uint64{}
	}
	clear(sc.ids)
	clear(sc.order)
	sc.order, sc.refs = sc.order[:0], sc.refs[:0]
}

// idOf returns s's dictionary id, defining it on first use.
func (sc *colScratch) idOf(s string) uint64 {
	if id, ok := sc.ids[s]; ok {
		return id
	}
	id := uint64(len(sc.order))
	sc.ids[s] = id
	sc.order = append(sc.order, s)
	return id
}

// appendDict appends the dictionary: its size, then its strings.
func (sc *colScratch) appendDict(col []byte) []byte {
	col = appendUvarint(col, uint64(len(sc.order)))
	for _, s := range sc.order {
		col = appendString(col, s)
	}
	return col
}

// appendChunkV3 encodes one chunk of events (already (time, seq)-sorted)
// column-wise into b, assigning schema ids from dict. sc is reused across
// columns and chunks, so the steady-state encode does not allocate.
func appendChunkV3(b []byte, events []Event, dict *schemaDict, sc *colScratch) []byte {
	col := sc.col[:0]

	// sec: first raw, then delta-of-delta.
	var prevSec, prevDelta int64
	for i, ev := range events {
		sec := int64(0)
		if !ev.Tuple.Time.IsZero() {
			sec = ev.Tuple.Time.Unix()
		}
		switch i {
		case 0:
			col = appendVarint(col, sec)
		default:
			delta := sec - prevSec
			col = appendVarint(col, delta-prevDelta)
			prevDelta = delta
		}
		prevSec = sec
	}
	b = appendSection(b, col)

	// nanos: raw varints; -1 tags the zero time (as in the row codec).
	col = col[:0]
	for _, ev := range events {
		if ev.Tuple.Time.IsZero() {
			col = appendVarint(col, -1)
		} else {
			col = appendVarint(col, int64(ev.Tuple.Time.Nanosecond()))
		}
	}
	b = appendSection(b, col)

	// seq: first raw, then zigzag deltas (exact under uint64 wraparound).
	col = col[:0]
	var prevSeq uint64
	for i, ev := range events {
		if i == 0 {
			col = appendUvarint(col, ev.Seq)
		} else {
			col = appendVarint(col, int64(ev.Seq-prevSeq))
		}
		prevSeq = ev.Seq
	}
	b = appendSection(b, col)

	// schema ids, RLE; a schema repeating its predecessor is a run, not a
	// dictionary lookup.
	col = col[:0]
	runSchema := events[0].Tuple.Schema
	runID, _ := dict.id(runSchema)
	run := 0
	for _, ev := range events {
		if ev.Tuple.Schema == runSchema {
			run++
			continue
		}
		col = appendUvarint(col, runID)
		col = appendUvarint(col, uint64(run))
		runSchema, run = ev.Tuple.Schema, 1
		runID, _ = dict.id(runSchema)
	}
	col = appendUvarint(col, runID)
	col = appendUvarint(col, uint64(run))
	b = appendSection(b, col)

	// lat / lon: raw float streams.
	col = col[:0]
	for _, ev := range events {
		col = appendFloat(col, ev.Tuple.Lat)
	}
	b = appendSection(b, col)
	col = col[:0]
	for _, ev := range events {
		col = appendFloat(col, ev.Tuple.Lon)
	}
	b = appendSection(b, col)

	// theme / source: chunk-local dictionary + RLE indices.
	sc.strs = sc.strs[:0]
	for _, ev := range events {
		sc.strs = append(sc.strs, ev.Tuple.Theme)
	}
	col = appendStringColumn(col[:0], sc.strs, sc)
	b = appendSection(b, col)
	sc.strs = sc.strs[:0]
	for _, ev := range events {
		sc.strs = append(sc.strs, ev.Tuple.Source)
	}
	col = appendStringColumn(col[:0], sc.strs, sc)
	b = appendSection(b, col)

	// tuple seqs.
	col = col[:0]
	var prevTSeq uint64
	for i, ev := range events {
		if i == 0 {
			col = appendUvarint(col, ev.Tuple.Seq)
		} else {
			col = appendVarint(col, int64(ev.Tuple.Seq-prevTSeq))
		}
		prevTSeq = ev.Tuple.Seq
	}
	b = appendSection(b, col)

	// nvals, RLE.
	col = col[:0]
	maxVals := 0
	runN, run := len(events[0].Tuple.Values), 0
	for _, ev := range events {
		n := len(ev.Tuple.Values)
		if n > maxVals {
			maxVals = n
		}
		if n == runN {
			run++
			continue
		}
		col = appendUvarint(col, uint64(runN))
		col = appendUvarint(col, uint64(run))
		runN, run = n, 1
	}
	col = appendUvarint(col, uint64(runN))
	col = appendUvarint(col, uint64(run))
	b = appendSection(b, col)

	// One typed value column per payload position.
	for p := 0; p < maxVals; p++ {
		col = appendValueColumn(col[:0], events, p, sc)
		b = appendSection(b, col)
	}

	sc.col = col[:0]
	return b
}

// appendStringColumn encodes one string column: a chunk-local dictionary of
// the distinct strings (first-use order) followed by RLE (index, run) pairs.
// Equal strings have equal ids, so the runs are runs of equal strings, and a
// string's id is looked up once per run.
func appendStringColumn(col []byte, strs []string, sc *colScratch) []byte {
	sc.resetDict()
	runs := sc.refs
	prev, run := strs[0], 0
	for _, s := range strs {
		if s == prev {
			run++
			continue
		}
		runs = append(runs, sc.idOf(prev), uint64(run))
		prev, run = s, 1
	}
	runs = append(runs, sc.idOf(prev), uint64(run))
	sc.refs = runs
	// The dictionary goes before the runs that index it.
	col = sc.appendDict(col)
	for _, r := range runs {
		col = appendUvarint(col, r)
	}
	return col
}

// appendValueColumn encodes payload position p across the chunk: a string
// dictionary (possibly empty), RLE (kind, run) pairs over the events that
// carry at least p+1 values, then the payloads in event order. Strings are
// dictionary indices; every other kind uses the row codec's representation.
// One pass resolves the strings — once per run of an equal string — and the
// kind runs, so the payload pass looks nothing up.
func appendValueColumn(col []byte, events []Event, p int, sc *colScratch) []byte {
	sc.resetDict()
	refs, kinds := sc.refs, sc.kinds[:0]
	var prev string
	var prevID uint64
	haveStr := false
	runKind, run := stt.KindNull, 0
	for _, ev := range events {
		if p >= len(ev.Tuple.Values) {
			continue
		}
		v := ev.Tuple.Values[p]
		if k := v.Kind(); k != runKind || run == 0 {
			if run > 0 {
				kinds = append(kinds, uint64(runKind), uint64(run))
			}
			runKind, run = k, 1
		} else {
			run++
		}
		if v.Kind() == stt.KindString {
			if s := v.AsString(); !haveStr || s != prev {
				prev, prevID, haveStr = s, sc.idOf(s), true
			}
			refs = append(refs, prevID)
		}
	}
	if run > 0 {
		kinds = append(kinds, uint64(runKind), uint64(run))
	}
	sc.refs, sc.kinds = refs, kinds

	col = sc.appendDict(col)
	for i := 0; i < len(kinds); i += 2 {
		col = append(col, byte(kinds[i]))
		col = appendUvarint(col, kinds[i+1])
	}

	// Payloads in event order; strings take their ids in the same order.
	for _, ev := range events {
		if p >= len(ev.Tuple.Values) {
			continue
		}
		v := ev.Tuple.Values[p]
		switch v.Kind() {
		case stt.KindNull:
		case stt.KindBool:
			if v.AsBool() {
				col = append(col, 1)
			} else {
				col = append(col, 0)
			}
		case stt.KindInt:
			col = appendVarint(col, v.AsInt())
		case stt.KindFloat:
			col = appendFloat(col, v.AsFloat())
		case stt.KindString:
			col = appendUvarint(col, refs[0])
			refs = refs[1:]
		case stt.KindTime:
			col = appendTime(col, v.AsTime())
		}
	}
	return col
}

// colChunk is one decoded chunk — what a read works on and the chunk cache
// stores — in exactly one of two forms. A full-projection read decodes
// straight to rows (decodeChunk): only rows is set, under a mask and allVals
// that claim everything, and it serves every later read of the chunk,
// whatever its projection or sub-range. A narrow projection decodes columns:
// slices for undecoded columns are nil, valsDone marks which value positions
// hold decoded payloads, and each read builds the rows it returns. A colChunk
// is immutable once built; merging projections builds a new one.
type colChunk struct {
	n        int
	mask     ColumnMask
	times    []time.Time
	seqs     []uint64
	tseqs    []uint64
	lats     []float64
	lons     []float64
	themes   []string
	sources  []string
	schemas  []*stt.Schema // per event, resolved through the file dictionary
	nvals    []int
	vals     [][]stt.Value // per payload position; nil slot = not decoded
	valsDone []bool
	allVals  bool

	// rows holds every event of the chunk in full, and then nothing above
	// but n, mask and allVals is set.
	rows []Event
}

// What one decoded event, payload value and time cost in memory.
const (
	rowBytes   = int64(unsafe.Sizeof(Event{}) + unsafe.Sizeof(stt.Tuple{}))
	valueBytes = int64(unsafe.Sizeof(stt.Value{}))
	timeBytes  = int64(unsafe.Sizeof(time.Time{}))
)

// heldBytes is what the chunk holds in memory, whichever form it is in: an
// Event and a Tuple per row plus the flat Values array, and the sum of the
// column slices. String bytes are not counted — they are dictionary entries
// shared by the events of a chunk, a few dozen bytes against its kilobytes.
// The cache asks once, when it stores the chunk.
func (cc *colChunk) heldBytes() int64 {
	held := int64(len(cc.rows))*rowBytes +
		int64(len(cc.times))*timeBytes +
		8*int64(len(cc.seqs)+len(cc.tseqs)+len(cc.lats)+len(cc.lons)+len(cc.schemas)+len(cc.nvals)) +
		16*int64(len(cc.themes)+len(cc.sources))
	for _, ev := range cc.rows {
		held += int64(len(ev.Tuple.Values)) * valueBytes
	}
	for _, col := range cc.vals {
		held += int64(len(col)) * valueBytes
	}
	return held
}

// covers reports whether the chunk satisfies proj. Rows satisfy everything;
// columns satisfy the narrow projections they were decoded under, and never
// the full one — a full read that finds columns decodes the rows and replaces
// them (merge), so an entry never holds both.
func (cc *colChunk) covers(proj Projection, si *SegmentInfo) bool {
	if cc.rows != nil {
		return true
	}
	if proj.full() || proj.Mask&^cc.mask != 0 {
		return false
	}
	if proj.Mask&ColValues != 0 || proj.Field == "" {
		return true
	}
	if cc.allVals {
		return true
	}
	for _, p := range si.fieldPositions(proj.Field) {
		if p >= len(cc.valsDone) || !cc.valsDone[p] {
			return false
		}
	}
	return true
}

// merge folds another decode of the same chunk into this one, returning a
// new colChunk carrying the union of their columns — or o itself when o is
// in rows, which has everything cc has and replaces it.
func (cc *colChunk) merge(o *colChunk) *colChunk {
	if o.rows != nil {
		return o
	}
	out := &colChunk{n: cc.n, mask: cc.mask | o.mask, allVals: cc.allVals || o.allVals}
	pick := func(a, b []time.Time) []time.Time {
		if a != nil {
			return a
		}
		return b
	}
	out.times = pick(cc.times, o.times)
	pickU := func(a, b []uint64) []uint64 {
		if a != nil {
			return a
		}
		return b
	}
	out.seqs, out.tseqs = pickU(cc.seqs, o.seqs), pickU(cc.tseqs, o.tseqs)
	pickF := func(a, b []float64) []float64 {
		if a != nil {
			return a
		}
		return b
	}
	out.lats, out.lons = pickF(cc.lats, o.lats), pickF(cc.lons, o.lons)
	pickS := func(a, b []string) []string {
		if a != nil {
			return a
		}
		return b
	}
	out.themes, out.sources = pickS(cc.themes, o.themes), pickS(cc.sources, o.sources)
	if cc.schemas != nil {
		out.schemas = cc.schemas
	} else {
		out.schemas = o.schemas
	}
	if cc.nvals != nil {
		out.nvals = cc.nvals
	} else {
		out.nvals = o.nvals
	}
	nv := len(cc.vals)
	if len(o.vals) > nv {
		nv = len(o.vals)
	}
	if nv > 0 {
		out.vals = make([][]stt.Value, nv)
		out.valsDone = make([]bool, nv)
		for p := 0; p < nv; p++ {
			if p < len(cc.vals) && cc.valsDone[p] {
				out.vals[p], out.valsDone[p] = cc.vals[p], true
			} else if p < len(o.vals) && o.valsDone[p] {
				out.vals[p], out.valsDone[p] = o.vals[p], true
			}
		}
	}
	return out
}

// appendRows appends events [a, b) of the chunk (chunk-local ordinals) to
// dst: the rows themselves when the chunk has them, whatever the projection,
// else events built from the decoded columns, with columns outside the
// chunk's mask zero — in buf's storage when buf is set, fresh otherwise.
func (cc *colChunk) appendRows(dst []Event, a, b int, buf *RowBuf) []Event {
	if cc.rows != nil {
		return append(dst, cc.rows[a:b]...)
	}
	// One flat Values array for the whole range, subsliced per tuple — a
	// per-event make here is the dominant materialization cost.
	total := 0
	for i := a; i < b; i++ {
		total += cc.nvals[i]
	}
	var tuples []stt.Tuple
	var flat []stt.Value
	if buf != nil {
		tuples, flat = buf.take(b-a, total)
	} else {
		tuples, flat = make([]stt.Tuple, b-a), make([]stt.Value, total)
	}
	off := 0
	for i := a; i < b; i++ {
		t := &tuples[i-a]
		*t = stt.Tuple{Schema: cc.schemas[i]}
		if cc.times != nil {
			t.Time = cc.times[i]
		}
		if cc.lats != nil {
			t.Lat, t.Lon = cc.lats[i], cc.lons[i]
		}
		if cc.themes != nil {
			t.Theme = cc.themes[i]
		}
		if cc.sources != nil {
			t.Source = cc.sources[i]
		}
		if cc.tseqs != nil {
			t.Seq = cc.tseqs[i]
		}
		if n := cc.nvals[i]; n > 0 {
			t.Values = flat[off : off+n : off+n]
			off += n
			for p := 0; p < n && p < len(cc.vals); p++ {
				if cc.valsDone[p] {
					t.Values[p] = cc.vals[p][i]
				}
			}
		}
		ev := Event{Tuple: t}
		if cc.seqs != nil {
			ev.Seq = cc.seqs[i]
		}
		dst = append(dst, ev)
	}
	return dst
}

// RowBuf is storage a reader reuses for the events ReadRangeInto builds
// from cached columns. The events of one read into a RowBuf are valid only
// until the next read into it, so a scan whose visitors keep no event past
// the read they came from saves building rows into fresh memory per read.
type RowBuf struct {
	evs    []Event
	tuples []stt.Tuple
	vals   []stt.Value
}

// take hands out n tuples and nv zeroed values the current read has not
// used yet. Storage that runs short is replaced, never grown in place: the
// events this read already built keep pointing into the old.
func (rb *RowBuf) take(n, nv int) ([]stt.Tuple, []stt.Value) {
	if len(rb.tuples)+n > cap(rb.tuples) {
		rb.tuples = make([]stt.Tuple, 0, max(n, 2*cap(rb.tuples)))
	}
	if len(rb.vals)+nv > cap(rb.vals) {
		rb.vals = make([]stt.Value, 0, max(nv, 2*cap(rb.vals)))
	}
	t, v := len(rb.tuples), len(rb.vals)
	rb.tuples, rb.vals = rb.tuples[:t+n], rb.vals[:v+nv]
	clear(rb.vals[v:])
	return rb.tuples[t:], rb.vals[v:]
}

// colDecoder walks a chunk's sections, decoding the projected ones and
// skipping the rest by their length prefix.
type colDecoder struct {
	d       decoder
	skipped int   // sections skipped
	decoded int64 // bytes of sections decoded
}

// section returns the next section's payload when want is true, or skips it.
func (cd *colDecoder) section(want bool) []byte {
	ln := cd.d.uvarint()
	if cd.d.err != nil {
		return nil
	}
	if !want {
		cd.d.bytes(int(ln))
		cd.skipped++
		return nil
	}
	cd.decoded += int64(ln)
	return cd.d.bytes(int(ln))
}

// decodeChunkV3 decodes one chunk's projected columns. n is the chunk's
// event count (from the sparse index, already validated against the file).
func (si *SegmentInfo) decodeChunkV3(data []byte, n int, proj Projection) (*colChunk, *colDecoder, error) {
	cd := &colDecoder{d: decoder{data: data}}
	cc := &colChunk{n: n, mask: proj.Mask & ColAll}

	// sec + nanos.
	if sec := cd.section(proj.Mask&ColTime != 0); sec != nil {
		nanos := cd.section(true)
		times, err := decodeTimeColumn(sec, nanos, n)
		if err != nil {
			return nil, cd, err
		}
		cc.times = times
	} else {
		cd.section(false)
	}

	if seq := cd.section(proj.Mask&ColSeq != 0); seq != nil {
		seqs, err := decodeSeqColumn(seq, n)
		if err != nil {
			return nil, cd, err
		}
		cc.seqs = seqs
	}

	// schema ids: always decoded — every materialized tuple needs one.
	sch := cd.section(true)
	if cd.d.err != nil {
		return nil, cd, cd.d.err
	}
	schemas, err := si.decodeSchemaColumn(sch, n)
	if err != nil {
		return nil, cd, err
	}
	cc.schemas = schemas

	if lat := cd.section(proj.Mask&ColGeo != 0); lat != nil {
		lon := cd.section(true)
		if cc.lats, err = decodeFloatColumn(lat, n); err != nil {
			return nil, cd, err
		}
		if cc.lons, err = decodeFloatColumn(lon, n); err != nil {
			return nil, cd, err
		}
	} else {
		cd.section(false)
	}

	if th := cd.section(proj.Mask&ColTheme != 0); th != nil {
		if cc.themes, err = decodeStringColumn(th, n); err != nil {
			return nil, cd, err
		}
	}
	if src := cd.section(proj.Mask&ColSource != 0); src != nil {
		if cc.sources, err = decodeStringColumn(src, n); err != nil {
			return nil, cd, err
		}
	}
	if tseq := cd.section(proj.Mask&ColSeq != 0); tseq != nil {
		if cc.tseqs, err = decodeSeqColumn(tseq, n); err != nil {
			return nil, cd, err
		}
	}

	// nvals: always decoded — it shapes every tuple's Values slice.
	nv := cd.section(true)
	if cd.d.err != nil {
		return nil, cd, cd.d.err
	}
	nvals, maxVals, err := decodeNValsColumn(nv, n)
	if err != nil {
		return nil, cd, err
	}
	cc.nvals = nvals

	wantAll := proj.Mask&ColValues != 0
	var wantPos map[int]bool
	if !wantAll && proj.Field != "" {
		wantPos = map[int]bool{}
		for _, p := range si.fieldPositions(proj.Field) {
			wantPos[p] = true
		}
	}
	if maxVals > 0 && (wantAll || len(wantPos) > 0) {
		cc.vals = make([][]stt.Value, maxVals)
		cc.valsDone = make([]bool, maxVals)
		cc.allVals = wantAll
		for p := 0; p < maxVals; p++ {
			vcol := cd.section(wantAll || wantPos[p])
			if cd.d.err != nil {
				return nil, cd, cd.d.err
			}
			if vcol == nil {
				continue
			}
			vals, err := decodeValueColumn(vcol, nvals, p, n)
			if err != nil {
				return nil, cd, err
			}
			cc.vals[p], cc.valsDone[p] = vals, true
		}
	} else {
		// Skip whatever value sections remain; the trailing ones may simply
		// not be needed, and skipping them validates their framing.
		for p := 0; p < maxVals; p++ {
			cd.section(false)
			if cd.d.err != nil {
				return nil, cd, cd.d.err
			}
		}
	}
	if cd.d.err != nil {
		return nil, cd, cd.d.err
	}
	return cc, cd, nil
}

// decodeChunkRowsV3 is the full-projection fast path: it decodes every
// column of one chunk straight into materialized events, skipping the
// columnar intermediates a cache would want. Cache-bypass full reads
// (compaction loads, disabled caches) use it — there the column slices
// would be instant garbage, and they cost as much as the rows themselves.
func (si *SegmentInfo) decodeChunkRowsV3(data []byte, n int) ([]Event, int64, error) {
	cd := &colDecoder{d: decoder{data: data}}
	out := make([]Event, n)
	tuples := make([]stt.Tuple, n)

	sec := cd.section(true)
	nanos := cd.section(true)
	if cd.d.err != nil {
		return nil, cd.decoded, cd.d.err
	}
	ds := decoder{data: sec}
	dn := decoder{data: nanos}
	var prevSec, prevDelta int64
	if n > 0 {
		prevSec = ds.varint()
		if ns := dn.varint(); ns != -1 {
			tuples[0].Time = time.Unix(prevSec, ns).UTC()
		}
	}
	for i := 1; i < n; i++ {
		prevDelta += ds.varint()
		prevSec += prevDelta
		if ns := dn.varint(); ns != -1 {
			tuples[i].Time = time.Unix(prevSec, ns).UTC()
		}
	}
	if ds.err != nil {
		return nil, cd.decoded, ds.err
	}
	if dn.err != nil {
		return nil, cd.decoded, dn.err
	}

	seq := cd.section(true)
	if cd.d.err != nil {
		return nil, cd.decoded, cd.d.err
	}
	d := decoder{data: seq}
	var prev uint64
	if n > 0 {
		prev = d.uvarint()
		out[0].Seq = prev
		out[0].Tuple = &tuples[0]
	}
	for i := 1; i < n; i++ {
		prev += uint64(d.varint())
		out[i].Seq = prev
		out[i].Tuple = &tuples[i]
	}
	if d.err != nil {
		return nil, cd.decoded, d.err
	}

	sch := cd.section(true)
	if cd.d.err != nil {
		return nil, cd.decoded, cd.d.err
	}
	err := si.fillSchemaRLE(sch, n, func(lo, hi int, s *stt.Schema) {
		for i := lo; i < hi; i++ {
			tuples[i].Schema = s
		}
	})
	if err != nil {
		return nil, cd.decoded, err
	}

	lat := cd.section(true)
	lon := cd.section(true)
	if cd.d.err != nil {
		return nil, cd.decoded, cd.d.err
	}
	if len(lat) != 8*n || len(lon) != 8*n {
		return nil, cd.decoded, fmt.Errorf("persist: geo columns are %d+%d bytes, want 2x%d", len(lat), len(lon), 8*n)
	}
	for i := 0; i < n; i++ {
		tuples[i].Lat = math.Float64frombits(binary.LittleEndian.Uint64(lat[8*i:]))
		tuples[i].Lon = math.Float64frombits(binary.LittleEndian.Uint64(lon[8*i:]))
	}

	th := cd.section(true)
	if cd.d.err != nil {
		return nil, cd.decoded, cd.d.err
	}
	if err := fillStringRLE(th, n, func(lo, hi int, s string) {
		for i := lo; i < hi; i++ {
			tuples[i].Theme = s
		}
	}); err != nil {
		return nil, cd.decoded, err
	}
	src := cd.section(true)
	if cd.d.err != nil {
		return nil, cd.decoded, cd.d.err
	}
	if err := fillStringRLE(src, n, func(lo, hi int, s string) {
		for i := lo; i < hi; i++ {
			tuples[i].Source = s
		}
	}); err != nil {
		return nil, cd.decoded, err
	}

	tseq := cd.section(true)
	if cd.d.err != nil {
		return nil, cd.decoded, cd.d.err
	}
	d = decoder{data: tseq}
	prev = 0
	if n > 0 {
		prev = d.uvarint()
		tuples[0].Seq = prev
	}
	for i := 1; i < n; i++ {
		prev += uint64(d.varint())
		tuples[i].Seq = prev
	}
	if d.err != nil {
		return nil, cd.decoded, d.err
	}

	nv := cd.section(true)
	if cd.d.err != nil {
		return nil, cd.decoded, cd.d.err
	}
	nvals, maxVals, err := decodeNValsColumn(nv, n)
	if err != nil {
		return nil, cd.decoded, err
	}
	total := 0
	for _, c := range nvals {
		total += c
	}
	if total > 0 {
		flat := make([]stt.Value, total)
		off := 0
		for i, c := range nvals {
			if c > 0 {
				tuples[i].Values = flat[off : off+c : off+c]
				off += c
			}
		}
	}
	for p := 0; p < maxVals; p++ {
		vcol := cd.section(true)
		if cd.d.err != nil {
			return nil, cd.decoded, cd.d.err
		}
		if err := fillValueColumnTuples(vcol, nvals, p, n, tuples); err != nil {
			return nil, cd.decoded, err
		}
	}
	return out, cd.decoded, nil
}

// fillValueColumnTuples is fillValueColumn writing straight into
// tuples[i].Values[p], organized as one tight loop per kind run — the rows
// fast path, where a per-value indirect call is measurable.
func fillValueColumnTuples(data []byte, nvals []int, p, n int, tuples []stt.Tuple) error {
	d := &decoder{data: data}
	dictLen := d.uvarint()
	if d.err != nil {
		return d.err
	}
	if dictLen > uint64(len(data)) {
		return fmt.Errorf("persist: value dictionary of %d entries exceeds column", dictLen)
	}
	var dictBuf [8]string // value dictionaries are usually a handful of entries
	dict := dictBuf[:0]
	if dictLen > uint64(len(dictBuf)) {
		dict = make([]string, 0, dictLen)
	}
	for i := uint64(0); i < dictLen; i++ {
		dict = append(dict, d.string())
		if d.err != nil {
			return d.err
		}
	}
	m := 0 // events carrying at least p+1 values
	for _, nv := range nvals {
		if nv > p {
			m++
		}
	}
	type kindRun struct {
		k stt.Kind
		r int
	}
	var runsBuf [16]kindRun
	runs := runsBuf[:0]
	filled := 0
	for filled < m {
		k := stt.Kind(d.byteVal())
		run := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if k > stt.KindTime {
			return fmt.Errorf("persist: unknown value kind %d", k)
		}
		if run == 0 || run > uint64(m-filled) {
			return fmt.Errorf("persist: kind run %d overflows column of %d", run, m)
		}
		runs = append(runs, kindRun{k, int(run)})
		filled += int(run)
	}
	ei := 0 // event cursor; advances to the next carrying event per value
	next := func() int {
		for nvals[ei] <= p {
			ei++
		}
		i := ei
		ei++
		return i
	}
	for _, kr := range runs {
		k, r := kr.k, kr.r
		switch k {
		case stt.KindNull:
			for j := 0; j < r; j++ {
				next()
			}
		case stt.KindBool:
			for j := 0; j < r; j++ {
				tuples[next()].Values[p] = stt.Bool(d.byteVal() != 0)
			}
		case stt.KindInt:
			for j := 0; j < r; j++ {
				tuples[next()].Values[p] = stt.Int(d.varint())
			}
		case stt.KindFloat:
			for j := 0; j < r; j++ {
				tuples[next()].Values[p] = stt.Float(d.float())
			}
		case stt.KindString:
			for j := 0; j < r; j++ {
				idx := d.uvarint()
				if idx >= dictLen {
					if d.err != nil {
						return d.err
					}
					return fmt.Errorf("persist: value index %d outside dictionary of %d", idx, dictLen)
				}
				tuples[next()].Values[p] = stt.String(dict[idx])
			}
		case stt.KindTime:
			for j := 0; j < r; j++ {
				tuples[next()].Values[p] = stt.Time(d.time())
			}
		}
		if d.err != nil {
			return d.err
		}
	}
	return nil
}

func decodeTimeColumn(sec, nanos []byte, n int) ([]time.Time, error) {
	ds := &decoder{data: sec}
	dn := &decoder{data: nanos}
	out := make([]time.Time, n)
	var prevSec, prevDelta int64
	for i := 0; i < n; i++ {
		var s int64
		if i == 0 {
			s = ds.varint()
		} else {
			prevDelta += ds.varint()
			s = prevSec + prevDelta
		}
		prevSec = s
		ns := dn.varint()
		if ds.err != nil {
			return nil, ds.err
		}
		if dn.err != nil {
			return nil, dn.err
		}
		if ns == -1 {
			out[i] = time.Time{}
		} else {
			out[i] = time.Unix(s, ns).UTC()
		}
	}
	return out, nil
}

func decodeSeqColumn(data []byte, n int) ([]uint64, error) {
	d := &decoder{data: data}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		if i == 0 {
			out[i] = d.uvarint()
		} else {
			out[i] = out[i-1] + uint64(d.varint())
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	return out, nil
}

func decodeFloatColumn(data []byte, n int) ([]float64, error) {
	if len(data) != 8*n {
		return nil, fmt.Errorf("persist: float column is %d bytes, want %d", len(data), 8*n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// fillSchemaRLE walks a schema column's (id, run) pairs, calling set once
// per run with the resolved schema and the run's ordinal range [lo, hi).
func (si *SegmentInfo) fillSchemaRLE(data []byte, n int, set func(lo, hi int, s *stt.Schema)) error {
	d := &decoder{data: data}
	filled := 0
	for filled < n {
		id := d.uvarint()
		run := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if id >= uint64(len(si.schemas)) {
			return fmt.Errorf("persist: undefined schema id %d", id)
		}
		s := si.schemas[id]
		if run == 0 || run > uint64(n-filled) {
			return fmt.Errorf("persist: schema run %d overflows chunk of %d", run, n)
		}
		set(filled, filled+int(run), s)
		filled += int(run)
	}
	return nil
}

func (si *SegmentInfo) decodeSchemaColumn(data []byte, n int) ([]*stt.Schema, error) {
	out := make([]*stt.Schema, n)
	err := si.fillSchemaRLE(data, n, func(lo, hi int, s *stt.Schema) {
		for i := lo; i < hi; i++ {
			out[i] = s
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fillStringRLE walks a string column — chunk-local dictionary, then
// (index, run) pairs — calling set once per run with the dictionary string
// and the run's ordinal range [lo, hi).
func fillStringRLE(data []byte, n int, set func(lo, hi int, s string)) error {
	d := &decoder{data: data}
	dictLen := d.uvarint()
	if d.err != nil {
		return d.err
	}
	if dictLen > uint64(len(data)) {
		return fmt.Errorf("persist: string dictionary of %d entries exceeds column", dictLen)
	}
	var dictBuf [8]string // chunk dictionaries are usually a handful of entries
	dict := dictBuf[:0]
	if dictLen > uint64(len(dictBuf)) {
		dict = make([]string, 0, dictLen)
	}
	for i := uint64(0); i < dictLen; i++ {
		dict = append(dict, d.string())
		if d.err != nil {
			return d.err
		}
	}
	filled := 0
	for filled < n {
		idx := d.uvarint()
		run := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if idx >= dictLen {
			return fmt.Errorf("persist: string index %d outside dictionary of %d", idx, dictLen)
		}
		if run == 0 || run > uint64(n-filled) {
			return fmt.Errorf("persist: string run %d overflows chunk of %d", run, n)
		}
		set(filled, filled+int(run), dict[idx])
		filled += int(run)
	}
	return nil
}

func decodeStringColumn(data []byte, n int) ([]string, error) {
	out := make([]string, n)
	err := fillStringRLE(data, n, func(lo, hi int, s string) {
		for i := lo; i < hi; i++ {
			out[i] = s
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func decodeNValsColumn(data []byte, n int) ([]int, int, error) {
	d := &decoder{data: data}
	out := make([]int, 0, n)
	maxVals := 0
	for len(out) < n {
		nv := d.uvarint()
		run := d.uvarint()
		if d.err != nil {
			return nil, 0, d.err
		}
		if nv > uint64(len(data))+64 {
			// A tuple cannot carry more values than its encoding had bytes;
			// reject absurd counts before they size allocations.
			return nil, 0, fmt.Errorf("persist: value count %d not plausible", nv)
		}
		if run == 0 || run > uint64(n-len(out)) {
			return nil, 0, fmt.Errorf("persist: nvals run %d overflows chunk of %d", run, n)
		}
		if int(nv) > maxVals {
			maxVals = int(nv)
		}
		for j := uint64(0); j < run; j++ {
			out = append(out, int(nv))
		}
	}
	return out, maxVals, nil
}

// fillValueColumn decodes payload position p, calling set(i, v) for every
// event i carrying a non-null value there. Events without a value at p are
// never visited.
func fillValueColumn(data []byte, nvals []int, p, n int, set func(i int, v stt.Value)) error {
	d := &decoder{data: data}
	dictLen := d.uvarint()
	if d.err != nil {
		return d.err
	}
	if dictLen > uint64(len(data)) {
		return fmt.Errorf("persist: value dictionary of %d entries exceeds column", dictLen)
	}
	var dictBuf [8]string // value dictionaries are usually a handful of entries
	dict := dictBuf[:0]
	if dictLen > uint64(len(dictBuf)) {
		dict = make([]string, 0, dictLen)
	}
	for i := uint64(0); i < dictLen; i++ {
		dict = append(dict, d.string())
		if d.err != nil {
			return d.err
		}
	}
	m := 0 // events carrying at least p+1 values
	for _, nv := range nvals {
		if nv > p {
			m++
		}
	}
	kinds := make([]stt.Kind, 0, m)
	for len(kinds) < m {
		k := stt.Kind(d.byteVal())
		run := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if k > stt.KindTime {
			return fmt.Errorf("persist: unknown value kind %d", k)
		}
		if run == 0 || run > uint64(m-len(kinds)) {
			return fmt.Errorf("persist: kind run %d overflows column of %d", run, m)
		}
		for j := uint64(0); j < run; j++ {
			kinds = append(kinds, k)
		}
	}
	vi := 0
	for i := 0; i < n; i++ {
		if nvals[i] <= p {
			continue
		}
		switch kinds[vi] {
		case stt.KindNull:
		case stt.KindBool:
			set(i, stt.Bool(d.byteVal() != 0))
		case stt.KindInt:
			set(i, stt.Int(d.varint()))
		case stt.KindFloat:
			set(i, stt.Float(d.float()))
		case stt.KindString:
			idx := d.uvarint()
			if d.err != nil {
				return d.err
			}
			if idx >= dictLen {
				return fmt.Errorf("persist: value index %d outside dictionary of %d", idx, dictLen)
			}
			set(i, stt.String(dict[idx]))
		case stt.KindTime:
			set(i, stt.Time(d.time()))
		}
		if d.err != nil {
			return d.err
		}
		vi++
	}
	return nil
}

// decodeValueColumn decodes payload position p. The returned slice is
// indexed by chunk-local event ordinal; events without a value at p hold
// the null value.
func decodeValueColumn(data []byte, nvals []int, p, n int) ([]stt.Value, error) {
	out := make([]stt.Value, n)
	if err := fillValueColumn(data, nvals, p, n, func(i int, v stt.Value) {
		out[i] = v
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// fieldPositions returns the payload positions the named field occupies
// across the file's schemas. Memoized per SegmentInfo — the schema set of a
// file is fixed.
func (si *SegmentInfo) fieldPositions(field string) []int {
	si.fieldPosMu.Lock()
	defer si.fieldPosMu.Unlock()
	if si.fieldPos == nil {
		si.fieldPos = map[string][]int{}
	}
	if pos, ok := si.fieldPos[field]; ok {
		return pos
	}
	seen := map[int]bool{}
	pos := []int{}
	for _, s := range si.schemas {
		if i := s.IndexOf(field); i >= 0 && !seen[i] {
			seen[i] = true
			pos = append(pos, i)
		}
	}
	si.fieldPos[field] = pos
	return pos
}
