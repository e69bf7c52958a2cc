package stt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestValueSize pins the layout: a Value is four words with one pointer in
// them. A payload slot is the unit the warehouse's memory is made of (every
// hot event and every cached cold row holds one per field), so growing it is
// a decision to take here, not a side effect of adding a field.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// operand is one Value built twice from the same ingredients: packed, and
// as the field-per-kind reference. quick generates it through Generate.
type operand struct {
	v   Value
	ref refValue
}

// interesting payloads, mixed into the random ones so a few hundred draws
// meet every edge: integer extremes, signed zero, NaNs with payloads, the
// infinities, times before 1970 and the zero time.
var (
	edgeInts   = []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	edgeFloats = []uint64{
		0, 1 << 63, // +0, -0
		0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, // quiet, negative and signalling NaN
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		math.Float64bits(1), math.Float64bits(-2.5), math.Float64bits(math.MaxFloat64),
	}
	edgeStrings = []string{"", "osaka", "\xff\xfe not utf-8 \x80", "nul\x00inside"}
	edgeTimes   = []time.Time{
		{},
		time.Unix(0, 0),
		time.Unix(-1, 999999999),
		time.Date(1869, 7, 1, 12, 0, 0, 123456789, time.UTC),
		time.Date(2016, 3, 15, 9, 0, 0, 1, time.FixedZone("JST", 9*3600)),
	}
)

func (operand) Generate(r *rand.Rand, _ int) reflect.Value {
	pick := func(n int) (int, bool) { return r.Intn(n), r.Intn(3) == 0 }
	var op operand
	switch Kind(r.Intn(6)) {
	case KindNull:
		op = operand{Null(), refNull()}
	case KindBool:
		b := r.Intn(2) == 1
		op = operand{Bool(b), refBool(b)}
	case KindInt:
		i := int64(r.Uint64())
		if k, edge := pick(len(edgeInts)); edge {
			i = edgeInts[k]
		} else if r.Intn(2) == 0 {
			i = int64(r.Intn(7)) - 3 // small, so Div/Mod meet zero and equal operands
		}
		op = operand{Int(i), refInt(i)}
	case KindFloat:
		bits := r.Uint64()
		if k, edge := pick(len(edgeFloats)); edge {
			bits = edgeFloats[k]
		} else if r.Intn(2) == 0 {
			bits = math.Float64bits(float64(r.Intn(7)) - 3)
		}
		f := math.Float64frombits(bits)
		op = operand{Float(f), refFloat(f)}
	case KindString:
		b := make([]byte, r.Intn(6))
		r.Read(b)
		s := string(b)
		if k, edge := pick(len(edgeStrings)); edge {
			s = edgeStrings[k]
		}
		op = operand{String(s), refString(s)}
	case KindTime:
		// ±~3000 years around 1970, any nanosecond, in some zone.
		ts := time.Unix(r.Int63n(2e11)-1e11, r.Int63n(1e9)).In(time.FixedZone("", r.Intn(86400)-43200))
		if k, edge := pick(len(edgeTimes)); edge {
			ts = edgeTimes[k]
		} else if r.Intn(2) == 0 {
			// Close together, so pairs share a second and differ below it.
			ts = time.Unix(int64(r.Intn(3))-1, []int64{0, 1, 999999999}[r.Intn(3)])
		}
		op = operand{Time(ts), refTime(ts)}
	}
	return reflect.ValueOf(op)
}

// same reports whether the packed value carries exactly what the reference
// does: the kind, and the payload bit for bit (a float by its bits, a time
// as the same instant, handed out in UTC).
func same(v Value, ref refValue) bool {
	if v.Kind() != ref.kind {
		return false
	}
	switch ref.kind {
	case KindBool:
		return v.AsBool() == ref.b
	case KindInt:
		return v.AsInt() == ref.i
	case KindFloat:
		return math.Float64bits(v.AsFloat()) == math.Float64bits(ref.f)
	case KindString:
		return v.AsString() == ref.s
	case KindTime:
		got := v.AsTime()
		return got.Equal(ref.t) && got.Location() == time.UTC && got.IsZero() == ref.t.IsZero()
	default:
		return true
	}
}

// TestValueRoundTrip: what goes into a constructor comes out of the
// accessor of its kind, and out of no other.
func TestValueRoundTrip(t *testing.T) {
	roundTrip := func(op operand) bool {
		if !same(op.v, op.ref) {
			t.Logf("%v (%s) does not read back as it was built", op.v, op.v.Kind())
			return false
		}
		v, k := op.v, op.v.Kind()
		// Accessors of the other kinds return their zero value. Int and
		// float convert into each other, by contract.
		if k != KindBool && v.AsBool() {
			return false
		}
		if !k.Numeric() && (v.AsInt() != 0 || v.AsFloat() != 0) {
			return false
		}
		if k == KindInt && v.AsFloat() != float64(op.ref.i) || k == KindFloat && v.AsInt() != int64(op.ref.f) {
			return false
		}
		if k != KindString && v.AsString() != "" {
			return false
		}
		if k != KindTime && !v.AsTime().IsZero() {
			return false
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}

	// The cases the issue names, spelled out.
	for _, i := range edgeInts {
		if Int(i).AsInt() != i {
			t.Errorf("Int(%d) reads back %d", i, Int(i).AsInt())
		}
	}
	for _, bits := range edgeFloats {
		if got := math.Float64bits(Float(math.Float64frombits(bits)).AsFloat()); got != bits {
			t.Errorf("Float(bits %#x) reads back %#x", bits, got)
		}
	}
	for _, s := range edgeStrings {
		if String(s).AsString() != s {
			t.Errorf("String(%q) reads back %q", s, String(s).AsString())
		}
	}
	for _, ts := range edgeTimes {
		got := Time(ts).AsTime()
		if !got.Equal(ts) || got.Nanosecond() != ts.Nanosecond() || got.Location() != time.UTC {
			t.Errorf("Time(%v) reads back %v", ts, got)
		}
	}
	if zero := Time(time.Time{}); !zero.AsTime().IsZero() || zero.Truthy() || zero.String() != "0001-01-01T00:00:00Z" {
		t.Errorf("the zero time did not survive: %v", zero)
	}
	if epoch := Time(time.Unix(0, 0)); epoch.AsTime().IsZero() || !epoch.Truthy() {
		t.Error("1970-01-01 reads as the zero time")
	}
}

// TestValueAgreesWithReference: every operation on packed values gives what
// the field-per-kind implementation gave, errors included.
func TestValueAgreesWithReference(t *testing.T) {
	type binary struct {
		name string
		op   func(a, b Value) (Value, error)
		ref  func(a, b refValue) (refValue, error)
	}
	ops := []binary{
		{"Add", Value.Add, refValue.Add},
		{"Sub", Value.Sub, refValue.Sub},
		{"Mul", Value.Mul, refValue.Mul},
		{"Div", Value.Div, refValue.Div},
		{"Mod", Value.Mod, refValue.Mod},
	}
	sameErr := func(a, b error) bool {
		return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
	}
	agree := func(a, b operand) bool {
		if a.v.Truthy() != a.ref.Truthy() {
			t.Logf("Truthy(%v)", a.v)
			return false
		}
		if a.v.Equal(b.v) != a.ref.Equal(b.ref) {
			t.Logf("Equal(%v, %v) = %v", a.v, b.v, a.v.Equal(b.v))
			return false
		}
		c, err := a.v.Compare(b.v)
		rc, rerr := a.ref.Compare(b.ref)
		if c != rc || !sameErr(err, rerr) {
			t.Logf("Compare(%v, %v) = %d, %v; reference %d, %v", a.v, b.v, c, err, rc, rerr)
			return false
		}
		for _, o := range ops {
			got, err := o.op(a.v, b.v)
			want, rerr := o.ref(a.ref, b.ref)
			if !sameErr(err, rerr) || !same(got, want) {
				t.Logf("%s(%v, %v) = %v, %v; reference %v, %v", o.name, a.v, b.v, got, err, want, rerr)
				return false
			}
		}
		got, err := a.v.Neg()
		want, rerr := a.ref.Neg()
		return sameErr(err, rerr) && same(got, want)
	}
	if err := quick.Check(agree, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
