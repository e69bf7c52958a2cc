package stt

import (
	"hash/maphash"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"
)

// metaKey names one of the STT coordinates an event's wire object carries
// beside its payload fields.
type metaKey uint8

const (
	metaNone metaKey = iota
	metaLat
	metaLon
	metaSource
	metaTheme
	metaTime
)

var metaNames = [...]string{
	metaLat:    "_lat",
	metaLon:    "_lon",
	metaSource: "_source",
	metaTheme:  "_theme",
	metaTime:   "_time",
}

// wireKey is one member of an event's wire object. A payload field named
// like a meta key shares its entry: the coordinate is written when the
// event has one, the field's value otherwise.
type wireKey struct {
	name   string
	quoted string  // `"name":`, escaped as encoding/json escapes a map key
	field  int     // position in Tuple.Values, -1 for a pure meta key
	meta   metaKey // metaNone for a pure payload field
}

// wireKeys builds a schema's key table: field names and meta keys merged
// and ordered the way encoding/json orders map keys (by raw key bytes).
// index maps a field name to its position in fields.
func wireKeys(fields []Field, index map[string]int) []wireKey {
	keys := make([]wireKey, len(fields), len(fields)+len(metaNames))
	for i, f := range fields {
		keys[i] = wireKey{name: f.Name, field: i}
	}
	for m := metaLat; m <= metaTime; m++ {
		if i, shared := index[metaNames[m]]; shared {
			keys[i].meta = m
		} else {
			keys = append(keys, wireKey{name: metaNames[m], field: -1, meta: m})
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].name < keys[j].name })
	for i := range keys {
		keys[i].quoted = string(append(AppendJSONString(nil, keys[i].name), ':'))
	}
	return keys
}

// leadingCoordinates counts the keys at the start of a key table that are
// coordinates only. Meta keys sort as _lat, _lon, _source, _theme, _time,
// so they are always the first that many of those five.
func leadingCoordinates(keys []wireKey) int {
	n := 0
	for n < len(keys) && keys[n].field < 0 {
		n++
	}
	return n
}

// AppendJSON appends the event's wire form to dst: one JSON object holding
// the payload fields by name and the STT coordinates as _time (RFC3339Nano,
// UTC), _lat, _lon and — when set — _theme and _source, with keys in sorted
// order. The bytes are exactly what encoding/json writes for the equivalent
// map[string]any (sorted keys, its float format, its string escaping), with
// one deliberate difference: a NaN or ±Inf payload value, which
// encoding/json refuses, is written as null. It is a PageEncoder with no
// memory.
func (t *Tuple) AppendJSON(dst []byte) []byte {
	return (*PageEncoder)(nil).AppendJSON(dst, t)
}

// PageEncoder writes the wire forms of a run of events — one query page —
// and remembers the values it wrote with their bytes, so that a page
// formats each distinct value once. Sensors quantize their readings and do
// not move, and tuples are aligned to their schema's granularity, so a page
// holds few distinct values per field and repeats its coordinates from
// event to event. The output is byte for byte Tuple.AppendJSON's.
//
// It remembers two things:
//   - Values. Each payload position of a schema (Tuple.Values[i], for i
//     below memoFields, in up to memoSchemas schemas at a time) and each
//     coordinate (_lat, _lon, _source, _theme, _time) has a direct-mapped
//     table of memoEntries values with the bytes they were written as. A
//     hit appends those bytes; a miss formats the value and takes over its
//     entry. Null and bool, whose forms are constants, are written
//     directly.
//   - The leading coordinates. A schema's wire keys start with the
//     coordinate keys that sort before its first payload field (all five,
//     unless a field sorts before or among them). When an event's leading
//     coordinates all equal those of the prefix last written, the whole
//     {"_lat":…,"_time":"…" prefix is one copy.
//
// Every memory is keyed by values alone, never by the event, schema or
// page they came from, and a value's wire form depends on nothing else: a
// float is keyed by its bits (so +0 and -0 stay distinct, and a NaN or ±Inf
// writes null whatever its bits), an int by its value, a string by
// equality, a time by its instant (one instant, whatever its Location or
// monotonic reading, is one UTC string). So a remembered form is right in
// any later page, a schema can take over another's tables as they stand,
// and an encoder can serve page after page without being cleared. Its
// bytes live in one arena of memoArenaBytes; when that is full every
// memory is cleared and the arena starts over.
//
// A PageEncoder holds its coordinate tables and arena inline, about 115
// KB, and makes a payload table (10 KB) on a position's first value, so
// reuse one rather than make one per page. The zero value is ready to use,
// and a nil *PageEncoder remembers nothing. A PageEncoder is not safe for
// concurrent use.
type PageEncoder struct {
	// coords holds a table per coordinate, at metaKey-1.
	coords [metaTime]memoTable
	// fields holds the payload tables of up to memoSchemas schemas, taken
	// over in turn by the schemas that come after them; last is the one
	// the previous event used.
	fields [memoSchemas]fieldMemo
	last   int
	next   int
	// arena holds the bytes of every memo entry and of the lead in its
	// first used bytes.
	arena [memoArenaBytes]byte
	used  int

	// The leading coordinates last written: their key (the zero key when
	// none are kept), where their bytes sit in the arena, and how many
	// values they hold.
	leadAt           leadKey
	leadOff, leadEnd uint32
	leadValues       int

	stats EncodeStats
}

const (
	// memoFields is how many leading payload positions of a schema have a
	// memo; a wider schema formats the fields past them.
	memoFields = 8
	// memoSchemas is how many schemas' payload tables are kept at once.
	memoSchemas = 16
	// memoEntries is the size of one direct-mapped table, indexed by a
	// byte of the value's hash.
	memoEntries = 256
	// memoValueMax bounds the wire form the memory keeps of a value or a
	// run of leading coordinates: a longer one is formatted every time, so
	// one long string cannot crowd the arena.
	memoValueMax = 256
	// memoArenaBytes bounds the bytes the memory holds together.
	memoArenaBytes = 64 << 10
)

type memoTable [memoEntries]memoEntry

// fieldMemo is the payload tables of one schema, one per position, made
// on the position's first value.
type fieldMemo struct {
	schema *Schema
	tables [memoFields]*memoTable
}

// table returns the table of payload position i, or nil: on a nil
// fieldMemo, and past memoFields.
func (f *fieldMemo) table(i int) *memoTable {
	if f == nil || i >= memoFields {
		return nil
	}
	if f.tables[i] == nil {
		f.tables[i] = new(memoTable)
	}
	return f.tables[i]
}

// fieldsOf returns the payload tables of schema s, taking over the next
// schema's in turn when s has none yet. What they remember stays right for
// s, as every entry is keyed by its value alone.
func (e *PageEncoder) fieldsOf(s *Schema) *fieldMemo {
	if f := &e.fields[e.last]; f.schema == s {
		return f
	}
	for i := range e.fields {
		if e.fields[i].schema == s {
			e.last = i
			return &e.fields[i]
		}
	}
	e.last, e.next = e.next, (e.next+1)%memoSchemas
	e.fields[e.last].schema = s
	return &e.fields[e.last]
}

// coord returns the table of coordinate m, or nil on a nil encoder.
func (e *PageEncoder) coord(m metaKey) *memoTable {
	if e == nil {
		return nil
	}
	return &e.coords[m-1]
}

// memoEntry is one remembered value and where its bytes sit in the arena.
// The zero entry holds null, which is never remembered, so it matches no
// value.
type memoEntry struct {
	v        Value
	off, end uint32
}

// EncodeStats counts the values a PageEncoder wrote: Formatted anew, or
// Copied from bytes it wrote before. A leading-coordinate copy counts each
// of its values.
type EncodeStats struct {
	Formatted, Copied int
}

// TakeStats returns the counts since the last call and starts them over.
func (e *PageEncoder) TakeStats() EncodeStats {
	st := e.stats
	e.stats = EncodeStats{}
	return st
}

// AppendJSON appends t's wire form to dst.
func (e *PageEncoder) AppendJSON(dst []byte, t *Tuple) []byte {
	dst = append(dst, '{')
	open := len(dst)
	keys := t.Schema.wire
	if e == nil {
		return append(e.appendKeys(dst, open, keys, nil, t), '}')
	}
	if n := t.Schema.wireLead; n > 0 {
		dst = e.appendLead(dst, keys[:n], t)
		keys = keys[n:]
	}
	return append(e.appendKeys(dst, open, keys, e.fieldsOf(t.Schema), t), '}')
}

// leadKey is what a run of leading coordinates is written from: the count
// of its keys and the coordinates among them — floats by their bits, the
// time without a monotonic reading, so that Equal compares instants.
type leadKey struct {
	keys          int
	lat, lon      uint64
	source, theme string
	time          time.Time
}

// leadOf is the key of t's first n coordinates.
func leadOf(n int, t *Tuple) leadKey {
	k := leadKey{keys: n, lat: math.Float64bits(t.Lat)}
	if n > 1 {
		k.lon = math.Float64bits(t.Lon)
	}
	if n > 2 {
		k.source = t.Source
	}
	if n > 3 {
		k.theme = t.Theme
	}
	if n > 4 {
		k.time = t.Time.Round(0)
	}
	return k
}

// leads reports whether t's first n coordinates are the ones k was taken
// from.
func (k *leadKey) leads(n int, t *Tuple) bool {
	return n == k.keys && math.Float64bits(t.Lat) == k.lat &&
		(n < 2 || math.Float64bits(t.Lon) == k.lon) &&
		(n < 3 || t.Source == k.source) &&
		(n < 4 || t.Theme == k.theme) &&
		(n < 5 || t.Time.Equal(k.time))
}

// appendLead appends t's leading coordinate keys, as one copy when they
// repeat the prefix last written.
func (e *PageEncoder) appendLead(dst []byte, keys []wireKey, t *Tuple) []byte {
	if e.leadAt.leads(len(keys), t) {
		e.stats.Copied += e.leadValues
		return append(dst, e.arena[e.leadOff:e.leadEnd]...)
	}
	start, before := len(dst), e.stats.Formatted+e.stats.Copied
	dst = e.appendKeys(dst, start, keys, nil, t)
	e.leadAt = leadKey{}
	if out := dst[start:]; len(out) <= memoValueMax {
		e.leadOff, e.leadEnd = e.keep(out)
		e.leadAt, e.leadValues = leadOf(len(keys), t), e.stats.Formatted+e.stats.Copied-before
	}
	return dst
}

// appendKeys appends t's members under keys, each after a comma unless it
// is the first since open, with fields as its schema's payload tables.
func (e *PageEncoder) appendKeys(dst []byte, open int, keys []wireKey, fields *fieldMemo, t *Tuple) []byte {
	for _, k := range keys {
		// A coordinate the event lacks leaves the key to a same-named
		// payload field, if the schema has one.
		meta := k.meta
		if meta == metaTheme && t.Theme == "" || meta == metaSource && t.Source == "" {
			meta = metaNone
		}
		if meta == metaNone && (k.field < 0 || k.field >= len(t.Values)) {
			continue
		}
		if len(dst) > open {
			dst = append(dst, ',')
		}
		dst = append(dst, k.quoted...)
		if meta == metaNone {
			dst = e.appendValue(dst, fields.table(k.field), t.Values[k.field])
		} else {
			dst = e.appendValue(dst, e.coord(meta), metaValue(meta, t))
		}
	}
	return dst
}

// metaValue is t's coordinate m as a Value, whose wire form is the
// coordinate's.
func metaValue(m metaKey, t *Tuple) Value {
	switch m {
	case metaLat:
		return Float(t.Lat)
	case metaLon:
		return Float(t.Lon)
	case metaSource:
		return String(t.Source)
	case metaTheme:
		return String(t.Theme)
	default:
		return Time(t.Time)
	}
}

// appendValue appends v's wire form through the memo table tab: a copy
// when tab remembers v, formatted and remembered otherwise. Null and bool,
// whose forms are constants, and any value without a table are formatted.
func (e *PageEncoder) appendValue(dst []byte, tab *memoTable, v Value) []byte {
	if tab == nil || v.kind <= KindBool {
		if e != nil {
			e.stats.Formatted++
		}
		return v.AppendJSON(dst)
	}
	ent := &tab[v.memoHash()]
	// ent.v == v, with the number word first and no call for the
	// comparison.
	if ent.v.num == v.num && ent.v.kind == v.kind && ent.v.nsec == v.nsec && ent.v.s == v.s {
		e.stats.Copied++
		return append(dst, e.arena[ent.off:ent.end]...)
	}
	e.stats.Formatted++
	start := len(dst)
	dst = v.AppendJSON(dst)
	if out := dst[start:]; len(out) <= memoValueMax {
		off, end := e.keep(out)
		*ent = memoEntry{v: v, off: off, end: end}
	}
	return dst
}

// keep copies out into the arena and returns where it sits. A full arena
// is started over first, with every memory that pointed into it cleared.
func (e *PageEncoder) keep(out []byte) (off, end uint32) {
	if e.used+len(out) > len(e.arena) {
		clear(e.coords[:])
		for i := range e.fields {
			for _, tab := range e.fields[i].tables {
				if tab != nil {
					clear(tab[:])
				}
			}
		}
		e.leadAt = leadKey{}
		e.used = 0
	}
	off = uint32(e.used)
	e.used += copy(e.arena[e.used:], out)
	return off, uint32(e.used)
}

// memoSeed seeds the string hash of the memo tables.
var memoSeed = maphash.MakeSeed()

// memoHash picks v's entry in a memo table: a byte of a multiplicative
// hash of its number word, or of a string's hash.
func (v Value) memoHash() uint8 {
	x := v.num ^ uint64(v.nsec)<<32
	if v.kind == KindString {
		x = maphash.String(memoSeed, v.s)
	}
	return uint8((x * 0x9e3779b97f4a7c15) >> 56)
}

// MarshalJSON makes the wire form what encoding/json writes for a tuple.
func (t *Tuple) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(nil), nil
}

// AppendJSON appends the value's wire form to dst, byte for byte what
// encoding/json writes for GoValue — except that NaN and ±Inf become null.
func (v Value) AppendJSON(dst []byte) []byte {
	switch v.kind {
	case KindBool:
		return strconv.AppendBool(dst, v.AsBool())
	case KindInt:
		return strconv.AppendInt(dst, v.AsInt(), 10)
	case KindFloat:
		return AppendJSONFloat(dst, v.AsFloat())
	case KindString:
		return AppendJSONString(dst, v.s)
	case KindTime:
		return AppendJSONTime(dst, v.AsTime())
	default:
		return append(dst, "null"...)
	}
}

// AppendJSONTime appends t as encoding/json writes a time.Time in UTC: a
// quoted RFC3339Nano string.
func AppendJSONTime(dst []byte, t time.Time) []byte {
	// The layout yields only digits, '-', ':', '.', 'T', 'Z' and '+':
	// nothing to escape.
	dst = append(dst, '"')
	dst = t.UTC().AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// AppendJSONFloat follows encoding/json's float64 encoder: the shortest
// decimal that round-trips, exponent form below 1e-6 and from 1e21, and a
// one-digit negative exponent written without its leading zero. NaN and
// ±Inf, which encoding/json refuses, are written as null.
func AppendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// AppendJSONString follows encoding/json's string encoder with HTML
// escaping on, as Marshal and a default Encoder have it: quotes,
// backslashes, control bytes, '<', '>' and '&' are escaped, invalid UTF-8
// becomes \ufffd, and U+2028/U+2029 are written as escapes.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
