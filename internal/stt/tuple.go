package stt

import (
	"fmt"
	"strings"
	"time"
)

// Tuple is one STT event: a payload of values plus the space, time and
// thematic coordinates the STT model attaches to every sensor reading.
// Whenever a sensor cannot produce the spatio-temporal information itself,
// the publish/subscribe layer fills Time and Lat/Lon in (paper §3).
type Tuple struct {
	// Schema describes Values. All tuples on a stream share one schema.
	Schema *Schema

	// Values holds the payload, positionally aligned with Schema fields.
	Values []Value

	// Time is the event time, truncated to Schema.TGran by convention.
	Time time.Time

	// Lat and Lon locate the event; snapped to Schema.SGran by convention.
	Lat, Lon float64

	// Theme is the primary thematic tag of this event.
	Theme string

	// Source is the identifier of the producing sensor.
	Source string

	// Seq is a per-source monotone sequence number, used for debugging and
	// loss accounting in the executor.
	Seq uint64
}

// NewTuple builds a tuple over schema with the given payload. It verifies
// arity but not kinds; use Validate for a full check.
func NewTuple(schema *Schema, values []Value) (*Tuple, error) {
	if len(values) != schema.NumFields() {
		return nil, fmt.Errorf("stt: tuple has %d values, schema %s has %d fields",
			len(values), schema, schema.NumFields())
	}
	return &Tuple{Schema: schema, Values: values}, nil
}

// Get returns the value of the named field.
func (t *Tuple) Get(name string) (Value, bool) {
	i := t.Schema.IndexOf(name)
	if i < 0 {
		return Null(), false
	}
	return t.Values[i], true
}

// MustGet returns the value of the named field and panics if absent; for
// use after schema validation has established the field exists.
func (t *Tuple) MustGet(name string) Value {
	v, ok := t.Get(name)
	if !ok {
		panic(fmt.Sprintf("stt: tuple %s has no field %q", t.Schema, name))
	}
	return v
}

// Validate checks that every value matches its declared field kind
// (null is allowed for any field) and that STT metadata respects the
// schema's granularities.
func (t *Tuple) Validate() error {
	if len(t.Values) != t.Schema.NumFields() {
		return fmt.Errorf("stt: arity mismatch: %d values vs %d fields",
			len(t.Values), t.Schema.NumFields())
	}
	for i, v := range t.Values {
		f := t.Schema.Field(i)
		if v.Kind() != KindNull && v.Kind() != f.Kind {
			// Ints are acceptable where floats are declared: sensors
			// frequently emit integral readings of float measures.
			if !(f.Kind == KindFloat && v.Kind() == KindInt) {
				return fmt.Errorf("stt: field %q: value kind %s does not match declared %s",
					f.Name, v.Kind(), f.Kind)
			}
		}
	}
	if !t.Time.Equal(t.Schema.TGran.Truncate(t.Time)) {
		return fmt.Errorf("stt: event time %v not aligned to %s granule",
			t.Time, t.Schema.TGran)
	}
	return nil
}

// Clone returns a deep copy of the tuple sharing the (immutable) schema.
func (t *Tuple) Clone() *Tuple {
	vals := make([]Value, len(t.Values))
	copy(vals, t.Values)
	c := *t
	c.Values = vals
	return &c
}

// AlignSTT truncates the event time and snaps the coordinates to the
// schema's granularities, returning the receiver for chaining. Sources call
// it once per emitted tuple so downstream operators can rely on alignment.
func (t *Tuple) AlignSTT() *Tuple {
	t.Time = t.Schema.TGran.Truncate(t.Time)
	t.Lat = t.Schema.SGran.SnapCoord(t.Lat)
	t.Lon = t.Schema.SGran.SnapCoord(t.Lon)
	return t
}

// Coarsen re-represents the tuple at coarser granularities, producing a new
// tuple bound to the given schema (which must be the same shape at coarser
// TGran/SGran). It is the basis of the consistency-preserving composition
// of heterogeneous streams.
func (t *Tuple) Coarsen(target *Schema) (*Tuple, error) {
	if !t.Schema.Compatible(target) {
		return nil, fmt.Errorf("stt: coarsen: incompatible schemas %s vs %s", t.Schema, target)
	}
	if target.TGran.FinerThan(t.Schema.TGran) {
		return nil, fmt.Errorf("stt: cannot refine temporal granularity %s to %s",
			t.Schema.TGran, target.TGran)
	}
	if t.Schema.SGran.CoarserThan(target.SGran) {
		return nil, fmt.Errorf("stt: cannot refine spatial granularity %s to %s",
			t.Schema.SGran, target.SGran)
	}
	c := t.Clone()
	c.Schema = target
	c.AlignSTT()
	return c, nil
}

// String renders the tuple compactly for logs and sample windows.
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range t.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Schema.Field(i).Name)
		b.WriteByte('=')
		b.WriteString(v.String())
	}
	fmt.Fprintf(&b, "} @%s (%.4f,%.4f)", t.Time.UTC().Format(time.RFC3339), t.Lat, t.Lon)
	if t.Source != "" {
		b.WriteString(" from ")
		b.WriteString(t.Source)
	}
	return b.String()
}
