package stt

import (
	"fmt"
	"sort"
	"strings"
)

// Field describes one attribute of a sensor tuple. Unit is a free-form unit
// name from the geo/units registry (e.g. "celsius", "mm", "m/s"); it is
// informative for Transform operations that change units of measure.
type Field struct {
	Name string `json:"name"`
	Kind Kind   `json:"-"`
	Unit string `json:"unit,omitempty"`

	// KindName mirrors Kind for JSON encoding of specs and samples.
	KindName string `json:"kind"`
}

// NewField builds a field with a consistent KindName.
func NewField(name string, kind Kind, unit string) Field {
	return Field{Name: name, Kind: kind, Unit: unit, KindName: kind.String()}
}

// Schema is the shape of the tuples on one stream: an ordered list of fields
// plus the STT metadata the stream is represented at. Schemas are immutable
// after construction and shared between all tuples of a stream; operators
// that change the shape derive a new schema once at plan time.
//
// The paper stresses that "data schema are not fixed but depend on the
// sensors": schemas here are runtime values propagated through the dataflow,
// not compile-time types.
type Schema struct {
	fields []Field
	index  map[string]int

	// wire is the key table of the event wire form (Tuple.AppendJSON), and
	// wireLead the number of its leading keys that are coordinates only.
	wire     []wireKey
	wireLead int

	// TGran and SGran are the temporal and spatial granularities the
	// stream's events are represented at.
	TGran TemporalGranularity
	SGran SpatialGranularity

	// Themes are the thematic dimensions of the stream (e.g. "weather",
	// "traffic", "social").
	Themes []string
}

// NewSchema builds a schema from fields and STT metadata. Field names must
// be unique and non-empty.
func NewSchema(fields []Field, tg TemporalGranularity, sg SpatialGranularity, themes ...string) (*Schema, error) {
	idx := make(map[string]int, len(fields))
	fs := make([]Field, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("stt: field %d has empty name", i)
		}
		if _, dup := idx[f.Name]; dup {
			return nil, fmt.Errorf("stt: duplicate field %q", f.Name)
		}
		if f.KindName == "" {
			f.KindName = f.Kind.String()
		}
		idx[f.Name] = i
		fs[i] = f
	}
	ts := make([]string, len(themes))
	copy(ts, themes)
	sort.Strings(ts)
	wire := wireKeys(fs, idx)
	return &Schema{fields: fs, index: idx, wire: wire, wireLead: leadingCoordinates(wire), TGran: tg, SGran: sg, Themes: ts}, nil
}

// MustSchema is NewSchema that panics on error; for package-level literals
// in tests and sensor definitions whose validity is static.
func MustSchema(fields []Field, tg TemporalGranularity, sg SpatialGranularity, themes ...string) *Schema {
	s, err := NewSchema(fields, tg, sg, themes...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFields returns the number of fields.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// IndexOf returns the position of the named field, or -1 if absent.
func (s *Schema) IndexOf(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Lookup returns the named field.
func (s *Schema) Lookup(name string) (Field, bool) {
	i, ok := s.index[name]
	if !ok {
		return Field{}, false
	}
	return s.fields[i], true
}

// HasTheme reports whether the schema carries the given thematic dimension.
func (s *Schema) HasTheme(theme string) bool {
	for _, t := range s.Themes {
		if t == theme {
			return true
		}
	}
	return false
}

// WithField returns a new schema extended with an extra field (used by the
// Virtual Property operation). It fails if the name already exists.
func (s *Schema) WithField(f Field) (*Schema, error) {
	if _, dup := s.index[f.Name]; dup {
		return nil, fmt.Errorf("stt: schema already has field %q", f.Name)
	}
	fields := append(s.Fields(), f)
	return NewSchema(fields, s.TGran, s.SGran, s.Themes...)
}

// WithGranularities returns a copy of the schema at different granularities.
func (s *Schema) WithGranularities(tg TemporalGranularity, sg SpatialGranularity) *Schema {
	out, err := NewSchema(s.Fields(), tg, sg, s.Themes...)
	if err != nil {
		// Fields come from a valid schema, so this cannot happen.
		panic(err)
	}
	return out
}

// Project returns a new schema with only the named fields, in the given
// order, plus the index mapping from new position to old position.
func (s *Schema) Project(names []string) (*Schema, []int, error) {
	fields := make([]Field, 0, len(names))
	mapping := make([]int, 0, len(names))
	for _, n := range names {
		i := s.IndexOf(n)
		if i < 0 {
			return nil, nil, fmt.Errorf("stt: schema has no field %q", n)
		}
		fields = append(fields, s.fields[i])
		mapping = append(mapping, i)
	}
	out, err := NewSchema(fields, s.TGran, s.SGran, s.Themes...)
	if err != nil {
		return nil, nil, err
	}
	return out, mapping, nil
}

// MergeThemes returns the sorted union of two theme lists.
func MergeThemes(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, t := range a {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, t := range b {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Compatible reports whether tuples of schema o can flow on a stream typed
// by s: same field names, kinds and order. Units and themes may differ.
func (s *Schema) Compatible(o *Schema) bool {
	if len(s.fields) != len(o.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i].Name != o.fields[i].Name || s.fields[i].Kind != o.fields[i].Kind {
			return false
		}
	}
	return true
}

// String renders the schema as name:kind pairs with granularity metadata,
// e.g. "(temperature:float[celsius], station:string) @minute/district {weather}".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Kind.String())
		if f.Unit != "" {
			b.WriteByte('[')
			b.WriteString(f.Unit)
			b.WriteByte(']')
		}
	}
	b.WriteString(") @")
	b.WriteString(s.TGran.String())
	b.WriteByte('/')
	b.WriteString(s.SGran.String())
	if len(s.Themes) > 0 {
		b.WriteString(" {")
		b.WriteString(strings.Join(s.Themes, ","))
		b.WriteByte('}')
	}
	return b.String()
}
