package stt

import (
	"fmt"
	"math"
	"time"
)

// refValue is the Value of before the 32-byte layout: one field per kind,
// all present at once, and the methods as they were written against those
// fields. TestValueAgreesWithReference holds the packed Value to it.
type refValue struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	t    time.Time
}

func refNull() refValue { return refValue{} }

func refBool(b bool) refValue { return refValue{kind: KindBool, b: b} }

func refInt(i int64) refValue { return refValue{kind: KindInt, i: i} }

func refFloat(f float64) refValue { return refValue{kind: KindFloat, f: f} }

func refString(s string) refValue { return refValue{kind: KindString, s: s} }

func refTime(t time.Time) refValue { return refValue{kind: KindTime, t: t} }

func (v refValue) Kind() Kind { return v.kind }

func (v refValue) IsNull() bool { return v.kind == KindNull }

func (v refValue) AsBool() bool { return v.b }

func (v refValue) AsInt() int64 {
	if v.kind == KindFloat {
		return int64(v.f)
	}
	return v.i
}

func (v refValue) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

func (v refValue) AsString() string { return v.s }

func (v refValue) AsTime() time.Time { return v.t }

func (v refValue) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	case KindTime:
		return !v.t.IsZero()
	default:
		return false
	}
}

func (v refValue) Equal(o refValue) bool {
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
		return v.b == o.b
	case KindString:
		return v.s == o.s
	case KindTime:
		return v.t.Equal(o.t)
	default:
		return false
	}
}

func (v refValue) Compare(o refValue) (int, error) {
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
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		default:
			return 0, nil
		}
	case KindTime:
		switch {
		case v.t.Before(o.t):
			return -1, nil
		case v.t.After(o.t):
			return 1, nil
		default:
			return 0, nil
		}
	case KindBool:
		switch {
		case !v.b && o.b:
			return -1, nil
		case v.b && !o.b:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("stt: kind %s is not comparable", v.kind)
	}
}

func (v refValue) Add(o refValue) (refValue, error) {
	if v.kind == KindString && o.kind == KindString {
		return refString(v.s + o.s), nil
	}
	if v.kind == KindInt && o.kind == KindInt {
		return refInt(v.i + o.i), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return refFloat(v.AsFloat() + o.AsFloat()), nil
	}
	return refNull(), fmt.Errorf("stt: cannot add %s and %s", v.kind, o.kind)
}

func (v refValue) Sub(o refValue) (refValue, error) {
	if v.kind == KindInt && o.kind == KindInt {
		return refInt(v.i - o.i), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return refFloat(v.AsFloat() - o.AsFloat()), nil
	}
	return refNull(), fmt.Errorf("stt: cannot subtract %s from %s", o.kind, v.kind)
}

func (v refValue) Mul(o refValue) (refValue, error) {
	if v.kind == KindInt && o.kind == KindInt {
		return refInt(v.i * o.i), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return refFloat(v.AsFloat() * o.AsFloat()), nil
	}
	return refNull(), fmt.Errorf("stt: cannot multiply %s and %s", v.kind, o.kind)
}

func (v refValue) Div(o refValue) (refValue, error) {
	if v.kind == KindInt && o.kind == KindInt {
		if o.i == 0 {
			return refNull(), fmt.Errorf("stt: integer division by zero")
		}
		return refInt(v.i / o.i), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return refFloat(v.AsFloat() / o.AsFloat()), nil
	}
	return refNull(), fmt.Errorf("stt: cannot divide %s by %s", v.kind, o.kind)
}

func (v refValue) Mod(o refValue) (refValue, error) {
	if v.kind == KindInt && o.kind == KindInt {
		if o.i == 0 {
			return refNull(), fmt.Errorf("stt: integer modulo by zero")
		}
		return refInt(v.i % o.i), nil
	}
	if v.kind.Numeric() && o.kind.Numeric() {
		return refFloat(math.Mod(v.AsFloat(), o.AsFloat())), nil
	}
	return refNull(), fmt.Errorf("stt: cannot take %s mod %s", v.kind, o.kind)
}

func (v refValue) Neg() (refValue, error) {
	switch v.kind {
	case KindInt:
		return refInt(-v.i), nil
	case KindFloat:
		return refFloat(-v.f), nil
	default:
		return refNull(), fmt.Errorf("stt: cannot negate %s", v.kind)
	}
}
