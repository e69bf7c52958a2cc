// Package stt implements the multigranular Space-Time-Thematic (STT) data
// model that StreamLoader sensors produce tuples in.
//
// Following the paper (§3, "Stream Processing Operations"), an event is a
// value associated with a spatial object at a given time according to given
// thematics, represented at a temporal and a spatial granularity.
// Granularities identify correlations among data produced by different
// sensors and impose consistency constraints when streams produced by
// heterogeneous devices are composed.
//
// # Values in memory
//
// A payload value is a Value: a kind tag and one 32-byte slot in which
// every kind that is a number shares one word and a string has its own (see
// Value). Each stored event holds one per field, hot or in the cold cache,
// so the slot's size is a large part of what an event costs. A time value
// is an instant: built from any time.Time, it keeps the Unix second and the
// nanosecond, and AsTime, String, GoValue and the wire form all give it back
// in UTC — in memory what it is in the WAL and in a segment file.
//
// # Wire form
//
// An event has one JSON rendering, written by Tuple.AppendJSON (and, through
// MarshalJSON, by encoding/json): an object of the payload fields by name
// plus _time, _lat, _lon and — when set — _theme and _source, keys in
// sorted order. It is byte for byte what encoding/json writes for the
// equivalent map[string]any, without building the map: NewSchema prepares
// the sorted, pre-quoted key table once per schema. The one difference is
// that NaN and ±Inf, which JSON cannot carry and encoding/json refuses,
// are written as null.
//
// A query page is written by a PageEncoder, which remembers the values it
// wrote with their bytes — one small table per payload position and per
// coordinate — and the run of leading coordinates last written, and copies
// a repeat instead of formatting it again. Its output is still byte for
// byte AppendJSON's: what it remembers is keyed by the value alone (a float
// by its bits, a time by its instant, a string by equality), and a value's
// wire form depends on nothing else.
package stt

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the dynamic type carried by a Value.
type Kind uint8

// The value kinds supported by the STT model. They cover the payloads of the
// physical and social sensors the paper considers (numeric measures, text,
// timestamps, booleans).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
)

var kindNames = [...]string{
	KindNull:   "null",
	KindBool:   "bool",
	KindInt:    "int",
	KindFloat:  "float",
	KindString: "string",
	KindTime:   "time",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind converts a kind name (as used in sensor schema declarations and
// dataflow specs) into a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return KindNull, fmt.Errorf("stt: unknown kind %q", s)
}

// Numeric reports whether values of the kind support arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Comparable reports whether values of the kind support ordering.
func (k Kind) Comparable() bool {
	return k == KindInt || k == KindFloat || k == KindString || k == KindTime
}

// Value is a tagged union holding one STT payload value. The zero Value is
// the null value. Values are small and copied by value; they never share
// mutable state, so tuples can flow between operator goroutines freely.
//
// A Value is 32 bytes with one pointer word: the payloads that are numbers
// share num — a bool as 0/1, an int as its two's complement, a float as its
// IEEE bits, a time as Unix seconds with the nanoseconds in nsec — and a
// string has s. A time Value is therefore an instant, not a wall clock: the
// location and the monotonic reading of the time.Time it was built from are
// dropped, AsTime returns it in UTC, and the zero time stays the zero time.
// That is the form persist logs and spills, so a value reads back from disk
// exactly as it sat in memory. TestValueSize pins the size.
type Value struct {
	kind Kind
	nsec uint32 // KindTime: nanoseconds within the second
	num  uint64 // bool, int, float bits, or Unix seconds, by kind
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool wraps a boolean.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.num = 1
	}
	return v
}

// Int wraps a 64-bit integer.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// String wraps a string.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Time wraps a timestamp: the instant t names, to the nanosecond.
func Time(t time.Time) Value {
	return Value{kind: KindTime, num: uint64(t.Unix()), nsec: uint32(t.Nanosecond())}
}

// Kind returns the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it is false unless Kind is KindBool.
func (v Value) AsBool() bool { return v.kind == KindBool && v.num != 0 }

// AsInt returns the value as an int64, converting from float if necessary;
// it is 0 unless Kind is numeric.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return int64(v.num)
	case KindFloat:
		return int64(math.Float64frombits(v.num))
	default:
		return 0
	}
}

// AsFloat returns the value as a float64, converting from int if necessary;
// it is 0 unless Kind is numeric.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.num)
	case KindInt:
		return float64(int64(v.num))
	default:
		return 0
	}
}

// AsString returns the string payload; it is empty unless Kind is KindString.
func (v Value) AsString() string { return v.s }

// AsTime returns the time payload, in UTC; it is the zero time unless Kind
// is KindTime.
func (v Value) AsTime() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return time.Unix(int64(v.num), int64(v.nsec)).UTC()
}

// Truthy reports whether the value is "true" in a condition context:
// a true bool, a non-zero number, a non-empty string, a non-zero time.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.num != 0
	case KindFloat:
		return math.Float64frombits(v.num) != 0
	case KindString:
		return v.s != ""
	case KindTime:
		return !v.AsTime().IsZero()
	default:
		return false
	}
}

// String renders the value for logs, samples and the monitoring UI.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.AsBool())
	case KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.AsTime().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// GoValue returns the payload as a plain Go value, for JSON encoding.
func (v Value) GoValue() any {
	switch v.kind {
	case KindBool:
		return v.AsBool()
	case KindInt:
		return v.AsInt()
	case KindFloat:
		return v.AsFloat()
	case KindString:
		return v.s
	case KindTime:
		return v.AsTime().Format(time.RFC3339Nano)
	default:
		return nil
	}
}

// FromGoValue converts a plain Go value (as produced by encoding/json) into
// a Value. JSON numbers arrive as float64; they stay floats to keep decoding
// loss-free.
func FromGoValue(x any) (Value, error) {
	switch t := x.(type) {
	case nil:
		return Null(), nil
	case bool:
		return Bool(t), nil
	case int:
		return Int(int64(t)), nil
	case int64:
		return Int(t), nil
	case float64:
		return Float(t), nil
	case string:
		return String(t), nil
	case time.Time:
		return Time(t), nil
	default:
		return Null(), fmt.Errorf("stt: cannot convert %T to Value", x)
	}
}

// Equal reports deep equality between two values. Int and float values
// compare numerically (Int(2) equals Float(2)).
func (v Value) Equal(o Value) bool {
	if v.kind.Numeric() && o.kind.Numeric() {
		return v.AsFloat() == o.AsFloat()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindBool:
		return v.num == o.num
	case KindString:
		return v.s == o.s
	case KindTime:
		return v.num == o.num && v.nsec == o.nsec
	default:
		return false
	}
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// It returns an error when the kinds are not mutually comparable.
func (v Value) Compare(o Value) (int, error) {
	if v.kind.Numeric() && o.kind.Numeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind != o.kind {
		return 0, fmt.Errorf("stt: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindString:
		return cmp.Compare(v.s, o.s), nil
	case KindTime:
		if c := cmp.Compare(int64(v.num), int64(o.num)); c != 0 {
			return c, nil
		}
		return cmp.Compare(v.nsec, o.nsec), nil
	case KindBool:
		return cmp.Compare(v.num, o.num), nil
	default:
		return 0, fmt.Errorf("stt: kind %s is not comparable", v.kind)
	}
}

// Add returns v + o for numeric values, or string concatenation when both
// operands are strings.
func (v Value) Add(o Value) (Value, error) {
	if v.kind == KindString && o.kind == KindString {
		return String(v.s + o.s), nil
	}
	if v.kind == KindInt && o.kind == KindInt {
		return Int(v.AsInt() + o.AsInt()), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return Float(v.AsFloat() + o.AsFloat()), nil
	}
	return Null(), fmt.Errorf("stt: cannot add %s and %s", v.kind, o.kind)
}

// Sub returns v - o for numeric values.
func (v Value) Sub(o Value) (Value, error) {
	if v.kind == KindInt && o.kind == KindInt {
		return Int(v.AsInt() - o.AsInt()), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return Float(v.AsFloat() - o.AsFloat()), nil
	}
	return Null(), fmt.Errorf("stt: cannot subtract %s from %s", o.kind, v.kind)
}

// Mul returns v * o for numeric values.
func (v Value) Mul(o Value) (Value, error) {
	if v.kind == KindInt && o.kind == KindInt {
		return Int(v.AsInt() * o.AsInt()), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return Float(v.AsFloat() * o.AsFloat()), nil
	}
	return Null(), fmt.Errorf("stt: cannot multiply %s and %s", v.kind, o.kind)
}

// Div returns v / o for numeric values. Integer division of two ints
// truncates toward zero, matching Go. Division by zero is an error for ints
// and yields ±Inf/NaN for floats, matching IEEE semantics sensors rely on.
func (v Value) Div(o Value) (Value, error) {
	if v.kind == KindInt && o.kind == KindInt {
		if o.num == 0 {
			return Null(), fmt.Errorf("stt: integer division by zero")
		}
		return Int(v.AsInt() / o.AsInt()), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return Float(v.AsFloat() / o.AsFloat()), nil
	}
	return Null(), fmt.Errorf("stt: cannot divide %s by %s", v.kind, o.kind)
}

// Mod returns v % o. Ints use Go's %, floats use math.Mod.
func (v Value) Mod(o Value) (Value, error) {
	if v.kind == KindInt && o.kind == KindInt {
		if o.num == 0 {
			return Null(), fmt.Errorf("stt: integer modulo by zero")
		}
		return Int(v.AsInt() % o.AsInt()), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return Float(math.Mod(v.AsFloat(), o.AsFloat())), nil
	}
	return Null(), fmt.Errorf("stt: cannot take %s mod %s", v.kind, o.kind)
}

// Neg returns -v for numeric values.
func (v Value) Neg() (Value, error) {
	switch v.kind {
	case KindInt:
		return Int(-v.AsInt()), nil
	case KindFloat:
		return Float(-v.AsFloat()), nil
	default:
		return Null(), fmt.Errorf("stt: cannot negate %s", v.kind)
	}
}
