package ops

import (
	"fmt"

	"streamloader/internal/expr"
	"streamloader/internal/geo"
	"streamloader/internal/stt"
)

// TransformStep is one step of a Transform operation (◇trans). The paper's
// Transform requirements are: changing the unit of measure, changing
// geographical coordinates between standards, and checking that data conform
// to validation rules; rename/project/coarsen are the supporting
// reconciliation steps heterogeneous schemas additionally need.
type TransformStep struct {
	// Op selects the step: "convert_unit", "convert_coord", "rename",
	// "project", "validate", "coarsen".
	Op string `json:"op"`

	// Field names the attribute for convert_unit and rename.
	Field string `json:"field,omitempty"`
	// ToUnit is the target unit for convert_unit (source unit comes from
	// the schema).
	ToUnit string `json:"to_unit,omitempty"`
	// NewName is the new attribute name for rename.
	NewName string `json:"new_name,omitempty"`
	// Fields lists the attributes kept by project, in order.
	Fields []string `json:"fields,omitempty"`
	// FromSystem/ToSystem are coordinate systems for convert_coord.
	FromSystem string `json:"from_system,omitempty"`
	ToSystem   string `json:"to_system,omitempty"`
	// Rule is the validation condition for validate; tuples that do not
	// satisfy it are dropped (and counted).
	Rule string `json:"rule,omitempty"`
	// TGran/SGran are the target granularities for coarsen.
	TGran string `json:"tgran,omitempty"`
	SGran string `json:"sgran,omitempty"`
}

// step is one compiled step. A validate step checks the tuple (keep); every
// other step rewrites it (write). Rewrites go to the transform's one copy of
// its input, made before the first of them, and write that copy in place.
type step struct {
	keep  func(*stt.Tuple) (bool, error)
	write func(*stt.Tuple) error
	// fresh marks a write that replaces Values rather than writing them,
	// so a copy made for it need not copy them.
	fresh bool
}

// Transform implements ◇trans s: the transformation function trans — a
// pipeline of reconciliation steps — applied to every tuple of s.
type Transform struct {
	mapOp
	steps []step
}

// NewTransform compiles the steps against the input schema, propagating the
// schema through each step.
func NewTransform(name string, steps []TransformStep, in *stt.Schema) (*Transform, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("transform %s: needs at least one step", name)
	}
	t := &Transform{}
	t.mapOp = mapOp{base: base{name: name, kind: KindTransform}, fn: t.apply}
	schema := in
	for i, s := range steps {
		st, next, err := compileStep(s, schema)
		if err != nil {
			return nil, fmt.Errorf("transform %s step %d (%s): %w", name, i+1, s.Op, err)
		}
		t.steps = append(t.steps, st)
		schema = next
	}
	t.out = schema
	return t, nil
}

func compileStep(s TransformStep, in *stt.Schema) (step, *stt.Schema, error) {
	switch s.Op {
	case "convert_unit":
		return compileConvertUnit(s, in)
	case "convert_coord":
		return compileConvertCoord(s, in)
	case "rename":
		return compileRename(s, in)
	case "project":
		return compileProject(s, in)
	case "validate":
		return compileValidate(s, in)
	case "coarsen":
		return compileCoarsen(s, in)
	default:
		return step{}, nil, fmt.Errorf("unknown transform op %q", s.Op)
	}
}

func compileConvertUnit(s TransformStep, in *stt.Schema) (step, *stt.Schema, error) {
	idx := in.IndexOf(s.Field)
	if idx < 0 {
		return step{}, nil, fmt.Errorf("unknown field %q", s.Field)
	}
	f := in.Field(idx)
	if !f.Kind.Numeric() {
		return step{}, nil, fmt.Errorf("field %q is %s, unit conversion needs a numeric field", s.Field, f.Kind)
	}
	if f.Unit == "" {
		return step{}, nil, fmt.Errorf("field %q carries no source unit", s.Field)
	}
	conv, err := geo.NewUnitConversion(f.Unit, s.ToUnit)
	if err != nil {
		return step{}, nil, err
	}
	fields := in.Fields()
	fields[idx] = stt.NewField(f.Name, stt.KindFloat, s.ToUnit)
	out, err := stt.NewSchema(fields, in.TGran, in.SGran, in.Themes...)
	if err != nil {
		return step{}, nil, err
	}
	return step{write: func(c *stt.Tuple) error {
		c.Schema = out
		if v := c.Values[idx]; !v.IsNull() {
			c.Values[idx] = stt.Float(conv.Apply(v.AsFloat()))
		}
		return nil
	}}, out, nil
}

func compileConvertCoord(s TransformStep, in *stt.Schema) (step, *stt.Schema, error) {
	from, err := geo.ParseCoordSystem(s.FromSystem)
	if err != nil {
		return step{}, nil, err
	}
	to, err := geo.ParseCoordSystem(s.ToSystem)
	if err != nil {
		return step{}, nil, err
	}
	if _, err := geo.ConvertCoord(geo.Point{}, from, to); err != nil {
		return step{}, nil, err
	}
	return step{write: func(c *stt.Tuple) error {
		p, err := geo.ConvertCoord(geo.Point{Lat: c.Lat, Lon: c.Lon}, from, to)
		if err != nil {
			return err
		}
		c.Lat, c.Lon = p.Lat, p.Lon
		c.AlignSTT()
		return nil
	}}, in, nil
}

func compileRename(s TransformStep, in *stt.Schema) (step, *stt.Schema, error) {
	idx := in.IndexOf(s.Field)
	if idx < 0 {
		return step{}, nil, fmt.Errorf("unknown field %q", s.Field)
	}
	if s.NewName == "" {
		return step{}, nil, fmt.Errorf("rename of %q needs new_name", s.Field)
	}
	fields := in.Fields()
	fields[idx] = stt.NewField(s.NewName, fields[idx].Kind, fields[idx].Unit)
	out, err := stt.NewSchema(fields, in.TGran, in.SGran, in.Themes...)
	if err != nil {
		return step{}, nil, err
	}
	return step{write: func(c *stt.Tuple) error {
		c.Schema = out
		return nil
	}}, out, nil
}

// compileProject's write builds the projected values in a slice of their
// own: the copy's are the source they are read from.
func compileProject(s TransformStep, in *stt.Schema) (step, *stt.Schema, error) {
	if len(s.Fields) == 0 {
		return step{}, nil, fmt.Errorf("project needs fields")
	}
	out, mapping, err := in.Project(s.Fields)
	if err != nil {
		return step{}, nil, err
	}
	return step{write: func(c *stt.Tuple) error {
		vals := make([]stt.Value, len(mapping))
		for i, src := range mapping {
			vals[i] = c.Values[src]
		}
		c.Schema, c.Values = out, vals
		return nil
	}, fresh: true}, out, nil
}

func compileValidate(s TransformStep, in *stt.Schema) (step, *stt.Schema, error) {
	rule, err := expr.CompileBool(s.Rule, expr.Env{Schema: in})
	if err != nil {
		return step{}, nil, err
	}
	// Non-conforming tuples are dropped.
	return step{keep: func(t *stt.Tuple) (bool, error) {
		return rule.EvalBool(expr.Scope{Tuple: t})
	}}, in, nil
}

// compileCoarsen refuses a refinement once, at compile time; the write only
// re-aligns the copy to the coarser schema.
func compileCoarsen(s TransformStep, in *stt.Schema) (step, *stt.Schema, error) {
	tg := in.TGran
	sg := in.SGran
	if s.TGran != "" {
		parsed, err := stt.ParseTemporalGranularity(s.TGran)
		if err != nil {
			return step{}, nil, err
		}
		tg = parsed
	}
	if s.SGran != "" {
		parsed, err := stt.ParseSpatialGranularity(s.SGran)
		if err != nil {
			return step{}, nil, err
		}
		sg = parsed
	}
	if tg.FinerThan(in.TGran) {
		return step{}, nil, fmt.Errorf("cannot refine temporal granularity %s to %s", in.TGran, tg)
	}
	if in.SGran.CoarserThan(sg) {
		return step{}, nil, fmt.Errorf("cannot refine spatial granularity %s to %s", in.SGran, sg)
	}
	out := in.WithGranularities(tg, sg)
	return step{write: func(c *stt.Tuple) error {
		c.Schema = out
		c.AlignSTT()
		return nil
	}}, out, nil
}

// apply runs the steps on one tuple. The input is copied at most once,
// before the first rewriting step, and not at all when no step rewrites.
func (o *Transform) apply(t *stt.Tuple) (*stt.Tuple, error) {
	cur, owned := t, false
	for _, st := range o.steps {
		if st.keep != nil {
			if ok, err := st.keep(cur); err != nil || !ok {
				return nil, err
			}
			continue
		}
		if !owned {
			if st.fresh {
				c := *cur
				cur = &c
			} else {
				cur = cur.Clone()
			}
			owned = true
		}
		if err := st.write(cur); err != nil {
			return nil, err
		}
	}
	return cur, nil
}
