package persist

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"time"

	"streamloader/internal/stt"
)

// The binary row encoding of an event is the WAL's (segment files hold
// columns, colcodec.go): compact, schema-dictionary based, and
// self-describing enough to decode with nothing but the dictionary. Times are encoded as (unix seconds,
// nanoseconds) rather than UnixNano so any time.Time the STT model can
// carry — including the zero time — round-trips exactly in wall-clock
// terms; decoded times come back in UTC, which preserves Equal/Before.

// castagnoli is the CRC32C table used for all on-disk checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// schemaJSON is the serialized form of an stt.Schema, used in WAL schema
// records and segment headers. JSON keeps it debuggable; schemas are few
// and written once per WAL file or segment, so compactness is irrelevant.
type schemaJSON struct {
	Fields []fieldJSON `json:"fields"`
	TGran  string      `json:"tgran"`
	SGran  string      `json:"sgran"`
	Themes []string    `json:"themes,omitempty"`
}

type fieldJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Unit string `json:"unit,omitempty"`
}

func encodeSchema(s *stt.Schema) schemaJSON {
	out := schemaJSON{
		TGran:  s.TGran.String(),
		SGran:  s.SGran.String(),
		Themes: s.Themes,
	}
	for _, f := range s.Fields() {
		out.Fields = append(out.Fields, fieldJSON{Name: f.Name, Kind: f.Kind.String(), Unit: f.Unit})
	}
	return out
}

func decodeSchema(j schemaJSON) (*stt.Schema, error) {
	fields := make([]stt.Field, 0, len(j.Fields))
	for _, f := range j.Fields {
		kind, err := stt.ParseKind(f.Kind)
		if err != nil {
			return nil, err
		}
		fields = append(fields, stt.NewField(f.Name, kind, f.Unit))
	}
	tg, err := stt.ParseTemporalGranularity(j.TGran)
	if err != nil {
		return nil, err
	}
	sg, err := stt.ParseSpatialGranularity(j.SGran)
	if err != nil {
		return nil, err
	}
	return stt.NewSchema(fields, tg, sg, j.Themes...)
}

// interner dedupes decoded schemas by canonical encoding, so every
// recovered tuple of one logical schema shares a single *stt.Schema —
// per-schema caches (condition compilation, join planning) then behave as
// they do for live streams.
type interner struct {
	mu      sync.Mutex
	schemas map[string]*stt.Schema
}

var globalInterner = &interner{schemas: map[string]*stt.Schema{}}

func (in *interner) intern(j schemaJSON) (*stt.Schema, error) {
	key, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.schemas[string(key)]; ok {
		return s, nil
	}
	s, err := decodeSchema(j)
	if err != nil {
		return nil, err
	}
	in.schemas[string(key)] = s
	return s, nil
}

// appendUvarint / appendVarint are binary.AppendUvarint/AppendVarint;
// named locally for symmetry with the decode helpers.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("persist: truncated uvarint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("persist: truncated varint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.data) {
		d.fail("persist: truncated %d-byte field at %d", n, d.pos)
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decoder) byteVal() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) string() string { return string(d.bytes(int(d.uvarint()))) }

func (d *decoder) float() float64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *decoder) time() time.Time {
	sec := d.varint()
	nsec := d.varint()
	if d.err != nil {
		return time.Time{}
	}
	if sec == 0 && nsec == -1 {
		return time.Time{} // encoded zero time
	}
	return time.Unix(sec, nsec).UTC()
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		// The zero time's Unix() is representable but collides with a real
		// (if prehistoric) instant; tag it with an impossible nanosecond.
		b = appendVarint(b, 0)
		return appendVarint(b, -1)
	}
	b = appendVarint(b, t.Unix())
	return appendVarint(b, int64(t.Nanosecond()))
}

func appendValue(b []byte, v stt.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case stt.KindNull:
	case stt.KindBool:
		if v.AsBool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case stt.KindInt:
		b = appendVarint(b, v.AsInt())
	case stt.KindFloat:
		b = appendFloat(b, v.AsFloat())
	case stt.KindString:
		b = appendString(b, v.AsString())
	case stt.KindTime:
		b = appendTime(b, v.AsTime())
	}
	return b
}

func (d *decoder) value() stt.Value {
	switch kind := stt.Kind(d.byteVal()); kind {
	case stt.KindNull:
		return stt.Null()
	case stt.KindBool:
		return stt.Bool(d.byteVal() != 0)
	case stt.KindInt:
		return stt.Int(d.varint())
	case stt.KindFloat:
		return stt.Float(d.float())
	case stt.KindString:
		return stt.String(d.string())
	case stt.KindTime:
		return stt.Time(d.time())
	default:
		d.fail("persist: unknown value kind %d", kind)
		return stt.Null()
	}
}

// appendEvent encodes one event given its schema's dictionary id.
func appendEvent(b []byte, ev Event, schemaID uint64) []byte {
	t := ev.Tuple
	b = appendUvarint(b, schemaID)
	b = appendUvarint(b, ev.Seq)
	b = appendTime(b, t.Time)
	b = appendFloat(b, t.Lat)
	b = appendFloat(b, t.Lon)
	b = appendString(b, t.Theme)
	b = appendString(b, t.Source)
	b = appendUvarint(b, t.Seq)
	b = appendUvarint(b, uint64(len(t.Values)))
	for _, v := range t.Values {
		b = appendValue(b, v)
	}
	return b
}

// event decodes one event; dict maps dictionary ids to schemas.
func (d *decoder) event(dict map[uint64]*stt.Schema) Event {
	schemaID := d.uvarint()
	seq := d.uvarint()
	tup := &stt.Tuple{
		Time: d.time(),
		Lat:  d.float(),
		Lon:  d.float(),
	}
	tup.Theme = d.string()
	tup.Source = d.string()
	tup.Seq = d.uvarint()
	n := d.uvarint()
	if d.err != nil {
		return Event{}
	}
	if n > uint64(len(d.data)-d.pos) {
		d.fail("persist: value count %d exceeds remaining data", n)
		return Event{}
	}
	tup.Values = make([]stt.Value, 0, n)
	for i := uint64(0); i < n; i++ {
		tup.Values = append(tup.Values, d.value())
	}
	schema, ok := dict[schemaID]
	if !ok {
		d.fail("persist: undefined schema id %d", schemaID)
		return Event{}
	}
	tup.Schema = schema
	return Event{Seq: seq, Tuple: tup}
}

// schemaDict assigns dictionary ids to schemas on first use on the encode
// side. Ids are dense and stable for the lifetime of the dict.
type schemaDict struct {
	ids   map[*stt.Schema]uint64
	order []*stt.Schema
}

func newSchemaDict() *schemaDict { return &schemaDict{ids: map[*stt.Schema]uint64{}} }

// id returns the schema's dictionary id, defining it if new.
func (sd *schemaDict) id(s *stt.Schema) (uint64, bool) {
	if id, ok := sd.ids[s]; ok {
		return id, false
	}
	id := uint64(len(sd.order))
	sd.ids[s] = id
	sd.order = append(sd.order, s)
	return id, true
}

// RowEncodedBytes reports how many bytes events occupy in the row-wise
// event encoding (the WAL's), assigning schema dictionary
// ids the way a segment writer would. Inspection tools use it to compare
// a file's on-disk footprint against the row-format equivalent.
func RowEncodedBytes(events []Event) int64 {
	dict := newSchemaDict()
	var b []byte
	var n int64
	for _, ev := range events {
		id, _ := dict.id(ev.Tuple.Schema)
		b = appendEvent(b[:0], ev, id)
		n += int64(len(b))
	}
	return n
}

// CompareEvents orders events by (time, seq): the canonical on-disk order
// WriteSegment requires, and the order every select and merge returns.
func CompareEvents(a, b Event) int {
	if c := a.Tuple.Time.Compare(b.Tuple.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// SortEvents orders events by CompareEvents in place. Callers with
// nearly-sorted input (a segment's time index) pay almost nothing: the sort
// is stable and adaptive.
func SortEvents(events []Event) { slices.SortStableFunc(events, CompareEvents) }
