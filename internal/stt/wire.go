package stt

import (
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
// and remembers the STT coordinates (_time, _lat, _lon, _source, _theme) it
// last wrote, with their bytes. Tuples are aligned to their schema's
// granularity and a sensor does not move, so a page repeats its
// coordinates from event to event; a repeat is copied instead of formatted
// again. The output is byte for byte Tuple.AppendJSON's.
//
// A coordinate is a repeat when its key equals the remembered one: a time
// by time.Equal (one instant, whatever its Location, is one UTC string), a
// float by its bits (so 0 and -0 stay distinct), a string by equality. The
// memory covers the coordinates only, never a payload field that shares a
// meta key's name.
//
// The zero value is ready to use, and a nil *PageEncoder remembers nothing.
// A PageEncoder is not safe for concurrent use.
type PageEncoder struct {
	// The keys of the coordinates last written. The zero value is a key
	// like any other: time.Time{}, +0, "".
	time          time.Time // without a monotonic reading
	lat, lon      uint64    // math.Float64bits
	source, theme string
	// out holds the bytes of each key, empty until the key repeats: a
	// coordinate's wire form is never empty.
	out [metaTime + 1][]byte
}

// AppendJSON appends t's wire form to dst.
func (e *PageEncoder) AppendJSON(dst []byte, t *Tuple) []byte {
	dst = append(dst, '{')
	open := len(dst)
	for _, k := range t.Schema.wire {
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
			dst = t.Values[k.field].AppendJSON(dst)
		} else {
			dst = e.appendMeta(dst, meta, t)
		}
	}
	return append(dst, '}')
}

// appendMeta appends t's coordinate m, copied when it repeats the last one
// written. A new key is only remembered; its bytes are kept once it
// repeats, so a coordinate that changes with every event costs one
// comparison more than formatting, and a run of one value formats it twice.
func (e *PageEncoder) appendMeta(dst []byte, m metaKey, t *Tuple) []byte {
	if e == nil {
		return formatMeta(dst, m, t)
	}
	switch m {
	case metaLat:
		if bits := math.Float64bits(t.Lat); bits != e.lat {
			e.lat, e.out[m] = bits, e.out[m][:0]
			return AppendJSONFloat(dst, t.Lat)
		}
	case metaLon:
		if bits := math.Float64bits(t.Lon); bits != e.lon {
			e.lon, e.out[m] = bits, e.out[m][:0]
			return AppendJSONFloat(dst, t.Lon)
		}
	case metaSource:
		if t.Source != e.source {
			e.source, e.out[m] = t.Source, e.out[m][:0]
			return AppendJSONString(dst, t.Source)
		}
	case metaTheme:
		if t.Theme != e.theme {
			e.theme, e.out[m] = t.Theme, e.out[m][:0]
			return AppendJSONString(dst, t.Theme)
		}
	default:
		// e.time carries no monotonic reading, so Equal compares instants.
		if !t.Time.Equal(e.time) {
			e.time, e.out[m] = t.Time.Round(0), e.out[m][:0]
			return AppendJSONTime(dst, t.Time)
		}
	}
	if len(e.out[m]) > 0 {
		return append(dst, e.out[m]...)
	}
	start := len(dst)
	dst = formatMeta(dst, m, t)
	e.out[m] = append(e.out[m], dst[start:]...)
	return dst
}

// formatMeta appends t's coordinate m, formatted.
func formatMeta(dst []byte, m metaKey, t *Tuple) []byte {
	switch m {
	case metaLat:
		return AppendJSONFloat(dst, t.Lat)
	case metaLon:
		return AppendJSONFloat(dst, t.Lon)
	case metaSource:
		return AppendJSONString(dst, t.Source)
	case metaTheme:
		return AppendJSONString(dst, t.Theme)
	default:
		return AppendJSONTime(dst, t.Time)
	}
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
