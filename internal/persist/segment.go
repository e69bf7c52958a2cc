package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"streamloader/internal/stt"
)

// Segment file layout — one format, written by WriteSegment and published
// by PublishFile:
//
//	[8]  magic "SLSEG003"
//	[4]  header length          [4] header CRC32C
//	[..] header JSON            (counts, keys, dictionaries, sparse index)
//	[..] seq block              count × 8-byte little-endian warehouse seqs
//	[..] event block            events in (time, seq) order, chunked
//
// The header carries everything the warehouse keeps in RAM for a spilled
// segment; the seq block lets recovery dedupe WAL records against the file
// without touching a payload; the event block is cut into chunks of
// IndexEvery events, each with its own CRC and byte offset in the sparse
// index, so a time-window read decodes only the chunks that can overlap.
// Each sparse-index entry also carries its chunk's stats — max event time,
// per-source / per-theme / primary-theme counts and per-field numeric
// summaries — so aggregate pushdown can answer individual chunks without
// decoding them. ChunkStatsFor folds them per schema slot in event order,
// and the header's source and theme counts are the sums of its chunks'.
//
// A chunk is encoded column-wise: a fixed order of length-prefixed column
// sections — delta-of-delta times, delta seqs, RLE schema ids, raw float
// lat/lon streams, dictionary+RLE theme/source/string columns, and one
// typed column per payload position (colcodec.go documents the exact
// order). Each section wears its byte length, so a projected read skips the
// columns a query does not touch and materializes rows only for events that
// survive filtering.
//
// Older builds wrote the same framing with row-encoded chunks under the
// magics "SLSEG001" and "SLSEG002". This build no longer reads them:
// OpenSegment names the file and says how to convert it.

const (
	segMagic     = "SLSEG003"
	oldSegMagic1 = "SLSEG001"
	oldSegMagic2 = "SLSEG002"
)

// IndexEvery is the sparse-index granule: one index entry (and one CRC'd
// chunk) per this many events.
const IndexEvery = 256

// SparseEntry locates one chunk of a segment's event block.
type SparseEntry struct {
	Pos  int       // ordinal of the chunk's first event
	Time time.Time // that event's time (chunk-local minimum)
	Off  int64     // byte offset of the chunk within the event block
	CRC  uint32    // checksum of the chunk's bytes
	// Stats carries the chunk's aggregate summary.
	Stats *ChunkStats
}

// FieldStats summarizes one payload field over one chunk, with exactly the
// contribution semantics the warehouse aggregate engine uses: NonNull is
// the COUNT(field) contribution (value present and non-null), and the
// Num/Sum/Min/Max frame folds the chunk's numeric values so SUM/AVG/MIN/MAX
// can absorb the whole chunk without decoding it. Min/Max are meaningful
// only when Num > 0. The JSON tags are its form in a file's sparse index.
type FieldStats struct {
	NonNull int       `json:"nn"`
	Num     int       `json:"n,omitempty"`
	Sum     StatFloat `json:"sum,omitzero"`
	Min     StatFloat `json:"min,omitzero"`
	Max     StatFloat `json:"max,omitzero"`
	// NonFinite counts numeric values excluded from the Num/Sum/Min/Max
	// frame because they are NaN or ±Inf (JSON cannot carry them and no
	// finite frame can absorb them). When NonFinite > 0 the frame is a
	// partial view and SUM/AVG/MIN/MAX pushdown must decode the chunk;
	// NonNull stays exact regardless.
	NonFinite int `json:"nf,omitempty"`
}

// StatFloat is a FieldStats float. Its zero, which a file's sparse index
// omits, is +0 alone: −0 is written and reads back −0, as the column codec
// keeps it in the events, so a stat answers the same before and after a
// restart.
type StatFloat float64

// IsZero reports whether f is +0, for the omitzero tag.
func (f StatFloat) IsZero() bool { return math.Float64bits(float64(f)) == 0 }

// ChunkStats is the per-chunk aggregate summary a sparse-index entry
// carries. Together with the entry's Time (the chunk's minimum event time)
// it gives the chunk a full time envelope plus the same count maps the file
// header carries for the whole segment, one level down. An empty map may be
// nil.
type ChunkStats struct {
	// MaxTime is the chunk's maximum event time (events are (time, seq)
	// sorted, so this is the last event's time).
	MaxTime time.Time
	// SourceCounts counts the chunk's events per source (empty sources
	// uncounted; the remainder is exactly them).
	SourceCounts map[string]int
	// ThemeCounts counts events *matching* each theme — primary tag plus
	// every schema theme — mirroring the header's matchTheme cardinality.
	ThemeCounts map[string]int
	// PrimaryThemeCounts counts events by primary Theme tag alone.
	PrimaryThemeCounts map[string]int
	// Fields summarizes each payload field seen non-null in the chunk.
	Fields map[string]FieldStats
}

type sparseJSON struct {
	Pos     int    `json:"pos"`
	UnixSec int64  `json:"unix_sec"`
	Nanos   int    `json:"nanos"`
	Off     int64  `json:"off"`
	CRC     uint32 `json:"crc"`

	// Chunk stats; a chunk with empty maps still gets a non-nil ChunkStats.
	MaxSec   int64                 `json:"max_sec,omitempty"`
	MaxNanos int                   `json:"max_nanos,omitempty"`
	Sources  map[string]int        `json:"sources,omitempty"`
	Themes   map[string]int        `json:"themes,omitempty"`
	Primary  map[string]int        `json:"primary,omitempty"`
	Fields   map[string]FieldStats `json:"fields,omitempty"`
}

type segHeaderJSON struct {
	Count        int            `json:"count"`
	Head         keyJSON        `json:"head"`
	Tail         keyJSON        `json:"tail"`
	SourceCounts map[string]int `json:"source_counts"`
	ThemeCounts  map[string]int `json:"theme_counts"`
	// PrimaryThemeCounts counts events by their primary Theme tag alone —
	// ThemeCounts additionally credits every schema theme, so it answers
	// "matches theme t" but not "is tagged t". Aggregate group-by-theme
	// pushdown needs the latter. Files written before this field existed
	// decode with it nil, which disables that one fast path for the file.
	PrimaryThemeCounts map[string]int `json:"primary_theme_counts"`
	Schemas            []schemaJSON   `json:"schemas"`
	Sparse             []sparseJSON   `json:"sparse"`
	EventBytes         int64          `json:"event_bytes"`
}

// SegmentInfo is the in-RAM face of one on-disk segment file: the time/seq
// envelope, index dictionaries and sparse index — everything queries need
// to prune, plus what they need to read the overlap when they cannot.
type SegmentInfo struct {
	Path  string
	Count int
	// Head and Tail are the keys of the first and last event in (time,
	// seq) order; [Head.Time, Tail.Time] is the segment's time envelope.
	Head, Tail   Key
	SourceCounts map[string]int
	ThemeCounts  map[string]int
	// PrimaryThemeCounts counts events by primary Theme tag only (empty
	// themes uncounted); nil when the file predates the field.
	PrimaryThemeCounts map[string]int
	Sparse             []SparseEntry
	Bytes              int64 // whole-file size

	schemas  []*stt.Schema // indexed by the schema ids chunks carry
	eventOff int64         // absolute offset of the event block

	// fieldPos memoizes fieldPositions lookups (v3 projected value reads).
	fieldPosMu sync.Mutex
	fieldPos   map[string][]int
}

func timeToKeyJSON(k Key) keyJSON {
	return keyJSON{UnixSec: k.Time.Unix(), Nanos: k.Time.Nanosecond(), Seq: k.Seq, Set: true}
}

func keyFromJSON(j keyJSON) Key {
	return Key{Time: time.Unix(j.UnixSec, int64(j.Nanos)).UTC(), Seq: j.Seq}
}

// WriteSegment encodes events — which must already be in (time, seq) order
// and non-empty — and publishes the file at path with PublishFile. It is the
// one segment writer: the spiller and the compactor both call it.
//
// It walks the events once per chunk: appendChunkV3 encodes the chunk and
// ChunkStatsFor summarizes it. The header's SourceCounts, ThemeCounts and
// PrimaryThemeCounts are the sums of the chunks' count maps, which count the
// same events the same way. The working memory — column and dictionary
// scratch, the event block and the file image — comes from segWriterPool, so
// a writer reuses it across segments without two goroutines (the spiller's
// and the compactor's) ever sharing it.
func WriteSegment(path string, events []Event) (*SegmentInfo, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("persist: refusing to write empty segment")
	}
	sw := segWriterPool.Get().(*segWriter)
	defer sw.release()
	nChunks := (len(events) + IndexEvery - 1) / IndexEvery
	info := &SegmentInfo{
		Path:               path,
		Count:              len(events),
		Head:               Key{Time: events[0].Tuple.Time, Seq: events[0].Seq},
		Tail:               Key{Time: events[len(events)-1].Tuple.Time, Seq: events[len(events)-1].Seq},
		SourceCounts:       map[string]int{},
		ThemeCounts:        map[string]int{},
		PrimaryThemeCounts: map[string]int{},
		Sparse:             make([]SparseEntry, 0, nChunks),
	}

	// Event block: one columnar chunk, with its stats, per IndexEvery events.
	block := sw.block[:0]
	for start := 0; start < len(events); start += IndexEvery {
		chunk := events[start:min(start+IndexEvery, len(events))]
		off := len(block)
		block = appendChunkV3(block, chunk, &sw.dict, &sw.col)
		st := ChunkStatsFor(chunk)
		addCounts(info.SourceCounts, st.SourceCounts)
		addCounts(info.ThemeCounts, st.ThemeCounts)
		addCounts(info.PrimaryThemeCounts, st.PrimaryThemeCounts)
		info.Sparse = append(info.Sparse, SparseEntry{
			Pos: start, Time: chunk[0].Tuple.Time, Off: int64(off),
			CRC: checksum(block[off:]), Stats: st,
		})
	}
	sw.block = block
	info.schemas = slices.Clone(sw.dict.order)

	hdr := segHeaderJSON{
		Count:              info.Count,
		Head:               timeToKeyJSON(info.Head),
		Tail:               timeToKeyJSON(info.Tail),
		SourceCounts:       info.SourceCounts,
		ThemeCounts:        info.ThemeCounts,
		PrimaryThemeCounts: info.PrimaryThemeCounts,
		Schemas:            make([]schemaJSON, 0, len(info.schemas)),
		Sparse:             make([]sparseJSON, 0, nChunks),
		EventBytes:         int64(len(block)),
	}
	for _, s := range info.schemas {
		hdr.Schemas = append(hdr.Schemas, encodeSchema(s))
	}
	for _, e := range info.Sparse {
		st := e.Stats
		hdr.Sparse = append(hdr.Sparse, sparseJSON{
			Pos: e.Pos, UnixSec: e.Time.Unix(), Nanos: e.Time.Nanosecond(),
			Off: e.Off, CRC: e.CRC,
			MaxSec: st.MaxTime.Unix(), MaxNanos: st.MaxTime.Nanosecond(),
			Sources: st.SourceCounts, Themes: st.ThemeCounts, Primary: st.PrimaryThemeCounts,
			Fields: st.Fields,
		})
	}
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}

	buf := sw.file[:0]
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdrBytes)))
	buf = binary.LittleEndian.AppendUint32(buf, checksum(hdrBytes))
	buf = append(buf, hdrBytes...)
	buf = slices.Grow(buf, 8*len(events)+len(block))
	for _, ev := range events {
		buf = binary.LittleEndian.AppendUint64(buf, ev.Seq)
	}
	info.eventOff = int64(len(buf))
	buf = append(buf, block...)
	info.Bytes = int64(len(buf))
	sw.file = buf

	if err := PublishFile(path, buf); err != nil {
		return nil, err
	}
	return info, nil
}

// addCounts adds the counts of src into dst.
func addCounts(dst, src map[string]int) {
	for k, n := range src {
		dst[k] += n
	}
}

// segWriter is WriteSegment's working memory. Nothing in it outlives the
// call that holds it: the schema dictionary's order is cloned into the
// SegmentInfo, the chunk stats are fresh maps, and the file image is
// written out before the writer goes back to the pool. Keeping the event
// block and file image, not only the column scratch, measured 7–8 % faster
// per bench-shaped segment than allocating them per call (block pre-sized
// from the event count, file image at its exact size) and leaves 43 KB of
// garbage per segment instead of 370 KB.
type segWriter struct {
	dict  schemaDict
	col   colScratch
	block []byte // the event block being encoded
	file  []byte // the whole file image handed to PublishFile
}

// maxPooledFile bounds the buffers a segWriter keeps between segments. A
// store's files hold at most 2x SegmentEvents events (a compaction's
// output), about 400 KB at the default 4 096; one configured with segments
// twenty times that writes files past the bound, and their buffers go to
// the collector instead of staying pinned in the pool.
const maxPooledFile = 8 << 20

var segWriterPool = sync.Pool{New: func() any {
	return &segWriter{dict: schemaDict{ids: map[*stt.Schema]uint64{}}}
}}

// release resets the writer and returns it to the pool.
func (sw *segWriter) release() {
	clear(sw.dict.ids)
	clear(sw.dict.order)
	sw.dict.order = sw.dict.order[:0]
	if cap(sw.file) > maxPooledFile {
		sw.block, sw.file = nil, nil
	}
	segWriterPool.Put(sw)
}

// ChunkStatsFor summarizes one chunk's events for the sparse index. The
// events must be in time order (MaxTime is the last one's time). It is the
// one definition of chunk stats: the segment writer calls it per file chunk,
// and the warehouse per chunk of a sealed in-memory segment. Its scratch is
// pooled, so concurrent callers each fold with their own.
//
// The fold resolves each schema's field slots to chunk-local field indexes
// once per chunk (a field name shared by two schemas is one index), and
// folds every value into its index's FieldStats in event order, so float
// sums come out exactly as a per-name fold would make them. Sources and
// themes are counted into reused maps one run of equal values at a time, and
// each is copied out once, at the end, at its final size.
func ChunkStatsFor(events []Event) *ChunkStats {
	f := statsFoldPool.Get().(*statsFold)
	cs := f.chunkStats(events)
	statsFoldPool.Put(f)
	return cs
}

var statsFoldPool = sync.Pool{New: func() any { return new(statsFold) }}

// statsFold is ChunkStatsFor's working memory, reset per chunk.
type statsFold struct {
	schemas []*stt.Schema  // the chunk's distinct schemas, first-use order
	slots   [][]int        // per schemas entry: field slot → field index
	slotBuf []int          // backing store of slots
	byName  map[string]int // field name → field index
	names   []string       // field index → field name
	fields  []FieldStats   // field index → the fold so far

	sources, themes, primary map[string]int
}

func (f *statsFold) reset() {
	f.schemas, f.slots, f.slotBuf = f.schemas[:0], f.slots[:0], f.slotBuf[:0]
	clear(f.byName)
	f.names, f.fields = f.names[:0], f.fields[:0]
	if f.sources == nil {
		f.sources, f.themes, f.primary = map[string]int{}, map[string]int{}, map[string]int{}
	}
	clear(f.sources)
	clear(f.themes)
	clear(f.primary)
}

// slotsOf returns schema's field slots resolved to field indexes, adding
// indexes for the field names the chunk has not seen yet.
func (f *statsFold) slotsOf(schema *stt.Schema) []int {
	for i, s := range f.schemas {
		if s == schema {
			return f.slots[i]
		}
	}
	if f.byName == nil {
		f.byName = map[string]int{}
	}
	start := len(f.slotBuf)
	for i, n := 0, schema.NumFields(); i < n; i++ {
		name := schema.Field(i).Name
		idx, ok := f.byName[name]
		if !ok {
			idx = len(f.names)
			f.byName[name] = idx
			f.names = append(f.names, name)
			f.fields = append(f.fields, FieldStats{})
		}
		f.slotBuf = append(f.slotBuf, idx)
	}
	slots := f.slotBuf[start:len(f.slotBuf):len(f.slotBuf)]
	f.schemas = append(f.schemas, schema)
	f.slots = append(f.slots, slots)
	return slots
}

// countThemes credits a run of n events tagged theme under schema: the
// primary tag, and every schema theme besides it.
func (f *statsFold) countThemes(theme string, schema *stt.Schema, n int) {
	if theme != "" {
		f.themes[theme] += n
		f.primary[theme] += n
	}
	for _, th := range schema.Themes {
		if th != theme {
			f.themes[th] += n
		}
	}
}

func (f *statsFold) chunkStats(events []Event) *ChunkStats {
	f.reset()
	first := events[0].Tuple
	src, srcRun := first.Source, 0
	theme, themeSchema, themeRun := first.Theme, first.Schema, 0
	var schema *stt.Schema
	var slots []int
	for _, ev := range events {
		t := ev.Tuple
		if t.Source != src {
			if src != "" {
				f.sources[src] += srcRun
			}
			src, srcRun = t.Source, 0
		}
		srcRun++
		if t.Theme != theme || t.Schema != themeSchema {
			f.countThemes(theme, themeSchema, themeRun)
			theme, themeSchema, themeRun = t.Theme, t.Schema, 0
		}
		themeRun++

		if t.Schema != schema {
			schema, slots = t.Schema, f.slotsOf(t.Schema)
		}
		vals := t.Values
		if len(vals) > len(slots) {
			vals = vals[:len(slots)]
		}
		for i, v := range vals {
			if v.IsNull() {
				continue
			}
			fs := &f.fields[slots[i]]
			fs.NonNull++
			if !v.Kind().Numeric() {
				continue
			}
			x := v.AsFloat()
			if math.IsNaN(x) || math.IsInf(x, 0) {
				// NaN/Inf cannot ride in the JSON frame; count it so
				// pushdown knows the frame is partial.
				fs.NonFinite++
				continue
			}
			if fs.Num == 0 {
				fs.Min, fs.Max = StatFloat(x), StatFloat(x)
			} else {
				fs.Min = StatFloat(math.Min(float64(fs.Min), x))
				fs.Max = StatFloat(math.Max(float64(fs.Max), x))
			}
			fs.Num++
			fs.Sum += StatFloat(x)
		}
	}
	if src != "" {
		f.sources[src] += srcRun
	}
	f.countThemes(theme, themeSchema, themeRun)

	cs := &ChunkStats{
		MaxTime:            events[len(events)-1].Tuple.Time,
		SourceCounts:       countsOf(f.sources),
		ThemeCounts:        countsOf(f.themes),
		PrimaryThemeCounts: countsOf(f.primary),
	}
	seen := 0
	for i := range f.fields {
		if f.fields[i].NonNull > 0 {
			seen++
		}
	}
	if seen > 0 {
		cs.Fields = make(map[string]FieldStats, seen)
		for i, fs := range f.fields {
			if fs.NonNull == 0 {
				continue
			}
			if math.IsInf(float64(fs.Sum), 0) {
				// Finite values can still overflow their sum; poison the frame.
				fs.NonFinite += fs.Num
				fs.Num, fs.Sum, fs.Min, fs.Max = 0, 0, 0, 0
			}
			cs.Fields[f.names[i]] = fs
		}
	}
	return cs
}

// countsOf returns a copy of counts at its size, or nil when it is empty.
func countsOf(counts map[string]int) map[string]int {
	if len(counts) == 0 {
		return nil
	}
	return maps.Clone(counts)
}

// OpenSegment reads a segment file's header and seq block — but no event
// payloads. The seqs are returned separately so recovery can dedupe WAL
// records against the file and then let them go.
func OpenSegment(path string) (*SegmentInfo, []uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}

	fixed := make([]byte, len(segMagic)+8)
	if _, err := io.ReadFull(f, fixed); err != nil {
		return nil, nil, fmt.Errorf("persist: %s: short header: %w", path, err)
	}
	switch magic := string(fixed[:len(segMagic)]); magic {
	case segMagic:
	case oldSegMagic1, oldSegMagic2:
		return nil, nil, fmt.Errorf("persist: %s: segment format %q is no longer read; open the store once with a build that still converts it (its compactor rewrites every such file as %q), then with this one",
			path, magic, segMagic)
	default:
		return nil, nil, fmt.Errorf("persist: %s: unknown segment magic %q (this build reads %q)", path, magic, segMagic)
	}
	hdrLen := int(binary.LittleEndian.Uint32(fixed[len(segMagic):]))
	hdrCRC := binary.LittleEndian.Uint32(fixed[len(segMagic)+4:])
	if int64(hdrLen) > st.Size() {
		return nil, nil, fmt.Errorf("persist: %s: header length %d exceeds file", path, hdrLen)
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(f, hdrBytes); err != nil {
		return nil, nil, fmt.Errorf("persist: %s: short header: %w", path, err)
	}
	if checksum(hdrBytes) != hdrCRC {
		return nil, nil, fmt.Errorf("persist: %s: header checksum mismatch", path)
	}
	var hdr segHeaderJSON
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, nil, fmt.Errorf("persist: %s: bad header: %w", path, err)
	}
	// The header passed its CRC, but a segment file is input from outside the
	// program. Every number the read path allocates or indexes with is
	// checked here, once, so that path need not re-check.
	rest := st.Size() - int64(len(fixed)) - int64(hdrLen) // seq block + event block
	if hdr.Count < 0 || hdr.EventBytes < 0 || int64(hdr.Count) > rest/8 ||
		8*int64(hdr.Count)+hdr.EventBytes != rest {
		return nil, nil, fmt.Errorf("persist: %s: header claims %d events and %d event bytes, the file has %d bytes for both",
			path, hdr.Count, hdr.EventBytes, rest)
	}
	if hdr.Count > 0 && (len(hdr.Sparse) == 0 || hdr.Sparse[0].Pos != 0) {
		return nil, nil, fmt.Errorf("persist: %s: sparse index does not start at event 0", path)
	}
	for k, e := range hdr.Sparse {
		if e.Pos < 0 || e.Pos >= hdr.Count || e.Off < 0 || e.Off >= hdr.EventBytes ||
			(k > 0 && (e.Pos <= hdr.Sparse[k-1].Pos || e.Off <= hdr.Sparse[k-1].Off)) {
			return nil, nil, fmt.Errorf("persist: %s: sparse entry %d (event %d, offset %d) is out of order or outside the file's %d events and %d event bytes",
				path, k, e.Pos, e.Off, hdr.Count, hdr.EventBytes)
		}
	}

	info := &SegmentInfo{
		Path:               path,
		Count:              hdr.Count,
		Head:               keyFromJSON(hdr.Head),
		Tail:               keyFromJSON(hdr.Tail),
		SourceCounts:       hdr.SourceCounts,
		ThemeCounts:        hdr.ThemeCounts,
		PrimaryThemeCounts: hdr.PrimaryThemeCounts, // nil for legacy files
		Bytes:              st.Size(),
	}
	if info.SourceCounts == nil {
		info.SourceCounts = map[string]int{}
	}
	if info.ThemeCounts == nil {
		info.ThemeCounts = map[string]int{}
	}
	for _, sj := range hdr.Schemas {
		s, err := globalInterner.intern(sj)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: %s: %w", path, err)
		}
		info.schemas = append(info.schemas, s)
	}
	for _, e := range hdr.Sparse {
		st := &ChunkStats{
			MaxTime:            time.Unix(e.MaxSec, int64(e.MaxNanos)).UTC(),
			SourceCounts:       e.Sources,
			ThemeCounts:        e.Themes,
			PrimaryThemeCounts: e.Primary,
			Fields:             e.Fields,
		}
		info.Sparse = append(info.Sparse, SparseEntry{
			Pos: e.Pos, Time: time.Unix(e.UnixSec, int64(e.Nanos)).UTC(),
			Off: e.Off, CRC: e.CRC, Stats: st,
		})
	}

	seqBytes := make([]byte, 8*hdr.Count)
	if _, err := io.ReadFull(f, seqBytes); err != nil {
		return nil, nil, fmt.Errorf("persist: %s: short seq block: %w", path, err)
	}
	seqs := make([]uint64, hdr.Count)
	for i := range seqs {
		seqs[i] = binary.LittleEndian.Uint64(seqBytes[8*i:])
	}
	info.eventOff = st.Size() - hdr.EventBytes
	return info, seqs, nil
}

// WindowPositions returns the conservative [lo, hi) event-ordinal range
// whose chunks can hold events in the [from, to) window, resolved on the
// sparse index alone. Callers re-filter exactly; events outside the window
// only cost their decode. The window bounds time alone, so the chunks'
// start times are all the search needs.
func (si *SegmentInfo) WindowPositions(from, to time.Time) (int, int) {
	lo, hi := 0, si.Count
	if !from.IsZero() {
		// Skip chunks that end strictly before from: chunk k's events are
		// all <= the next chunk's start time.
		k := 0
		for k+1 < len(si.Sparse) && si.Sparse[k+1].Time.Before(from) {
			k++
		}
		lo = si.Sparse[k].Pos
	}
	if !to.IsZero() {
		k := len(si.Sparse)
		for k > 0 && !si.Sparse[k-1].Time.Before(to) {
			k--
		}
		if k < len(si.Sparse) {
			hi = si.Sparse[k].Pos
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// NumChunks returns how many chunks the event block is cut into.
func (si *SegmentInfo) NumChunks() int { return len(si.Sparse) }

// ChunkRange returns chunk k's event-ordinal range [start, end).
func (si *SegmentInfo) ChunkRange(k int) (start, end int) {
	start = si.Sparse[k].Pos
	end = si.Count
	if k+1 < len(si.Sparse) {
		end = si.Sparse[k+1].Pos
	}
	return start, end
}

// ReadStats reports how one read was served: chunks found decoded in the
// cache versus chunks read back from disk, and what the decodes cost.
type ReadStats struct {
	CacheHits   int
	CacheMisses int
	// ColumnsSkipped counts column sections a projected decode skipped over
	// instead of parsing. Cache hits contribute nothing.
	ColumnsSkipped int
	// BytesDecoded is how many event-block bytes the decodes parsed: the
	// projected sections only. Cache hits contribute nothing.
	BytesDecoded int64
}

// readBufPool recycles the scratch buffers chunk reads land in. Decoded
// events copy every byte they keep (strings included), so a buffer can be
// reused the moment its decode finishes; the pool turns the per-read block
// allocation — the dominant alloc on the spilled-select path — into a
// steady-state no-op.
var readBufPool = sync.Pool{New: func() any { return new([]byte) }}

// chunkSpan returns the [first, last] chunk range covering event ordinals
// [lo, hi).
func (si *SegmentInfo) chunkSpan(lo, hi int) (int, int) {
	first := 0
	for first+1 < len(si.Sparse) && si.Sparse[first+1].Pos <= lo {
		first++
	}
	last := first
	for last+1 < len(si.Sparse) && si.Sparse[last+1].Pos < hi {
		last++
	}
	return first, last
}

// chunkBounds returns chunk k's event-ordinal range and its byte range
// within the event block.
func (si *SegmentInfo) chunkBounds(k int) (posStart, posEnd int, offStart, offEnd int64) {
	posStart, offStart = si.Sparse[k].Pos, si.Sparse[k].Off
	posEnd, offEnd = si.Count, si.Bytes-si.eventOff
	if k+1 < len(si.Sparse) {
		posEnd, offEnd = si.Sparse[k+1].Pos, si.Sparse[k+1].Off
	}
	return posStart, posEnd, offStart, offEnd
}

// ReadRangeProjected is the one read of a segment's event block: it returns
// the events with ordinals [lo, hi), carrying at least the columns proj
// names (unprojected columns may come back zero). Per chunk spanning the
// range it consults the cache for a decoded chunk covering the projection;
// the chunks that miss are read back — each contiguous run of them with one
// pread into a pooled buffer — checksummed, decoded (decodeChunk: a narrow
// projection to its columns, the full one to rows), merged into whatever
// columns the cache already held for the chunk — rows replace them — and
// stored back. A nil cache reads everything. The returned events may be
// shared with other readers and must not be mutated.
func (si *SegmentInfo) ReadRangeProjected(cache *ChunkCache, lo, hi int, proj Projection) ([]Event, ReadStats, error) {
	return si.ReadRangeInto(cache, lo, hi, proj, nil)
}

// ReadRangeInto is ReadRangeProjected building the events it makes from
// cached columns in buf's storage, valid until the next read into buf; a
// nil buf makes them fresh.
func (si *SegmentInfo) ReadRangeInto(cache *ChunkCache, lo, hi int, proj Projection, buf *RowBuf) ([]Event, ReadStats, error) {
	var rs ReadStats
	if lo < 0 || hi > si.Count || lo >= hi {
		if lo == hi {
			return nil, rs, nil
		}
		return nil, rs, fmt.Errorf("persist: %s: bad range [%d, %d) of %d", si.Path, lo, hi, si.Count)
	}
	first, last := si.chunkSpan(lo, hi)
	chunks := make([]*colChunk, last-first+1)
	partial := make([]*colChunk, last-first+1) // cached but missing projected columns
	if cache != nil {
		for k := first; k <= last; k++ {
			if cc, ok := cache.get(chunkKey{si.Path, k}); ok {
				if cc.covers(proj, si) {
					chunks[k-first] = cc
					rs.CacheHits++
					continue
				}
				partial[k-first] = cc
			}
			rs.CacheMisses++
		}
	} else {
		rs.CacheMisses = last - first + 1
	}

	var f *os.File
	var bufp *[]byte
	for k := first; k <= last; k++ {
		if chunks[k-first] != nil {
			continue
		}
		end := k
		for end+1 <= last && chunks[end+1-first] == nil {
			end++
		}
		if f == nil {
			var err error
			if f, err = os.Open(si.Path); err != nil {
				return nil, rs, err
			}
			defer f.Close()
			bufp = readBufPool.Get().(*[]byte)
			defer readBufPool.Put(bufp)
		}
		_, _, startOff, _ := si.chunkBounds(k)
		_, _, _, endOff := si.chunkBounds(end)
		need := int(endOff - startOff)
		if cap(*bufp) < need {
			*bufp = make([]byte, need)
		}
		block := (*bufp)[:need]
		if _, err := f.ReadAt(block, si.eventOff+startOff); err != nil {
			return nil, rs, fmt.Errorf("persist: %s: reading events: %w", si.Path, err)
		}
		for c := k; c <= end; c++ {
			posStart, posEnd, cOff, cEnd := si.chunkBounds(c)
			chunk := block[cOff-startOff : cEnd-startOff]
			if checksum(chunk) != si.Sparse[c].CRC {
				return nil, rs, fmt.Errorf("persist: %s: chunk %d checksum mismatch", si.Path, c)
			}
			cc, err := si.decodeChunk(chunk, posEnd-posStart, proj, &rs)
			if err != nil {
				return nil, rs, fmt.Errorf("persist: %s: decoding chunk %d: %w", si.Path, c, err)
			}
			if p := partial[c-first]; p != nil {
				cc = p.merge(cc)
			}
			chunks[c-first] = cc
			if cache != nil {
				cache.update(chunkKey{si.Path, c}, cc, cEnd-cOff)
			}
		}
		k = end
	}

	var out []Event
	if buf != nil {
		out, buf.tuples, buf.vals = buf.evs[:0], buf.tuples[:0], buf.vals[:0]
	} else {
		out = make([]Event, 0, hi-lo)
	}
	for idx, cc := range chunks {
		posStart, posEnd, _, _ := si.chunkBounds(first + idx)
		if a, b := max(lo, posStart), min(hi, posEnd); a < b {
			out = cc.appendRows(out, a-posStart, b-posStart, buf)
		}
	}
	if buf != nil {
		buf.evs = out
	}
	return out, rs, nil
}

// decodeChunk decodes one checksummed chunk of n events into the one form
// its projection calls for: a narrow projection decodes its columns, and a
// full one decodes straight into rows — the columns would cost as much again
// and be garbage the moment the rows exist — held in a colChunk that has
// nothing else and covers every projection, cached or not.
func (si *SegmentInfo) decodeChunk(data []byte, n int, proj Projection, rs *ReadStats) (*colChunk, error) {
	if !proj.full() {
		cc, cd, err := si.decodeChunkV3(data, n, proj)
		rs.ColumnsSkipped += cd.skipped
		rs.BytesDecoded += cd.decoded
		return cc, err
	}
	rows, decoded, err := si.decodeChunkRowsV3(data, n)
	rs.BytesDecoded += decoded
	if err != nil {
		return nil, err
	}
	return &colChunk{n: n, mask: ColAll, allVals: true, rows: rows}, nil
}

// ReadRangeCached is ReadRangeProjected with the full projection. Nothing
// in this module calls it; bench/ does, and bench/ is the one directory a
// change may not edit (BENCHMARK.json), so it stays until bench/ moves.
func (si *SegmentInfo) ReadRangeCached(cache *ChunkCache, lo, hi int) ([]Event, ReadStats, error) {
	return si.ReadRangeProjected(cache, lo, hi, FullProjection)
}

// Remove deletes the segment file.
func (si *SegmentInfo) Remove() error {
	err := os.Remove(si.Path)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// ListSegments returns the segment files in dir in generation order, plus
// the next free generation number. A file that wears the .seg suffix but
// whose name does not parse as a generation is an error, not a skip: its
// events would otherwise be silently invisible, and a garbled name means
// something outside this package has touched the directory.
func ListSegments(dir string) ([]string, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 1, nil
		}
		return nil, 0, err
	}
	var files []string
	next := 1
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash mid-spill can strand a temp file; it was never
			// published, so clear it out.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		n, err := ParseSegmentFileName(name)
		if err != nil {
			return nil, 0, err
		}
		files = append(files, filepath.Join(dir, name))
		if n >= next {
			next = n + 1
		}
	}
	return files, next, nil
}

// SegmentFileName names generation n's segment file.
func SegmentFileName(n int) string { return fmt.Sprintf("seg-%08d.seg", n) }

// ParseSegmentFileName extracts the generation from a segment file name,
// strictly: "seg-" + decimal digits + ".seg", nothing more. (Sscanf-style
// parsing would accept trailing garbage like "seg-12.seg.seg" as gen 12,
// then apply the wrong retention watermark to the file at recovery.)
func ParseSegmentFileName(name string) (int, error) {
	digits, ok := strings.CutPrefix(name, "seg-")
	if ok {
		digits, ok = strings.CutSuffix(digits, ".seg")
	}
	if !ok || digits == "" {
		return 0, fmt.Errorf("persist: bad segment file name %q (want seg-<gen>.seg)", name)
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("persist: bad segment file name %q (want seg-<gen>.seg)", name)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}
