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

// stepFunc transforms one tuple; returning nil drops it.
type stepFunc func(*stt.Tuple) (*stt.Tuple, error)

// Transform implements ◇trans s: the transformation function trans — a
// pipeline of reconciliation steps — applied to every tuple of s.
type Transform struct {
	mapOp
	steps []stepFunc
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
		fn, next, err := compileStep(s, schema)
		if err != nil {
			return nil, fmt.Errorf("transform %s step %d (%s): %w", name, i+1, s.Op, err)
		}
		t.steps = append(t.steps, fn)
		schema = next
	}
	t.out = schema
	return t, nil
}

func compileStep(s TransformStep, in *stt.Schema) (stepFunc, *stt.Schema, error) {
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
		return nil, nil, fmt.Errorf("unknown transform op %q", s.Op)
	}
}

func compileConvertUnit(s TransformStep, in *stt.Schema) (stepFunc, *stt.Schema, error) {
	idx := in.IndexOf(s.Field)
	if idx < 0 {
		return nil, nil, fmt.Errorf("unknown field %q", s.Field)
	}
	f := in.Field(idx)
	if !f.Kind.Numeric() {
		return nil, nil, fmt.Errorf("field %q is %s, unit conversion needs a numeric field", s.Field, f.Kind)
	}
	if f.Unit == "" {
		return nil, nil, fmt.Errorf("field %q carries no source unit", s.Field)
	}
	// Validate the conversion once at plan time.
	if _, err := geo.ConvertUnit(0, f.Unit, s.ToUnit); err != nil {
		return nil, nil, err
	}
	fields := in.Fields()
	fields[idx] = stt.NewField(f.Name, stt.KindFloat, s.ToUnit)
	out, err := stt.NewSchema(fields, in.TGran, in.SGran, in.Themes...)
	if err != nil {
		return nil, nil, err
	}
	from, to := f.Unit, s.ToUnit
	fn := func(t *stt.Tuple) (*stt.Tuple, error) {
		c := t.Clone()
		c.Schema = out
		v := c.Values[idx]
		if !v.IsNull() {
			converted, err := geo.ConvertUnit(v.AsFloat(), from, to)
			if err != nil {
				return nil, err
			}
			c.Values[idx] = stt.Float(converted)
		}
		return c, nil
	}
	return fn, out, nil
}

func compileConvertCoord(s TransformStep, in *stt.Schema) (stepFunc, *stt.Schema, error) {
	from, err := geo.ParseCoordSystem(s.FromSystem)
	if err != nil {
		return nil, nil, err
	}
	to, err := geo.ParseCoordSystem(s.ToSystem)
	if err != nil {
		return nil, nil, err
	}
	if _, err := geo.ConvertCoord(geo.Point{}, from, to); err != nil {
		return nil, nil, err
	}
	fn := func(t *stt.Tuple) (*stt.Tuple, error) {
		c := t.Clone()
		p, err := geo.ConvertCoord(geo.Point{Lat: c.Lat, Lon: c.Lon}, from, to)
		if err != nil {
			return nil, err
		}
		c.Lat, c.Lon = p.Lat, p.Lon
		c.AlignSTT()
		return c, nil
	}
	return fn, in, nil
}

func compileRename(s TransformStep, in *stt.Schema) (stepFunc, *stt.Schema, error) {
	idx := in.IndexOf(s.Field)
	if idx < 0 {
		return nil, nil, fmt.Errorf("unknown field %q", s.Field)
	}
	if s.NewName == "" {
		return nil, nil, fmt.Errorf("rename of %q needs new_name", s.Field)
	}
	fields := in.Fields()
	fields[idx] = stt.NewField(s.NewName, fields[idx].Kind, fields[idx].Unit)
	out, err := stt.NewSchema(fields, in.TGran, in.SGran, in.Themes...)
	if err != nil {
		return nil, nil, err
	}
	fn := func(t *stt.Tuple) (*stt.Tuple, error) {
		c := t.Clone()
		c.Schema = out
		return c, nil
	}
	return fn, out, nil
}

func compileProject(s TransformStep, in *stt.Schema) (stepFunc, *stt.Schema, error) {
	if len(s.Fields) == 0 {
		return nil, nil, fmt.Errorf("project needs fields")
	}
	out, mapping, err := in.Project(s.Fields)
	if err != nil {
		return nil, nil, err
	}
	fn := func(t *stt.Tuple) (*stt.Tuple, error) {
		vals := make([]stt.Value, len(mapping))
		for i, src := range mapping {
			vals[i] = t.Values[src]
		}
		c := *t
		c.Schema = out
		c.Values = vals
		return &c, nil
	}
	return fn, out, nil
}

func compileValidate(s TransformStep, in *stt.Schema) (stepFunc, *stt.Schema, error) {
	rule, err := expr.CompileBool(s.Rule, expr.Env{Schema: in})
	if err != nil {
		return nil, nil, err
	}
	fn := func(t *stt.Tuple) (*stt.Tuple, error) {
		ok, err := rule.EvalBool(expr.Scope{Tuple: t})
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil // non-conforming tuples are dropped
		}
		return t, nil
	}
	return fn, in, nil
}

func compileCoarsen(s TransformStep, in *stt.Schema) (stepFunc, *stt.Schema, error) {
	tg := in.TGran
	sg := in.SGran
	if s.TGran != "" {
		parsed, err := stt.ParseTemporalGranularity(s.TGran)
		if err != nil {
			return nil, nil, err
		}
		tg = parsed
	}
	if s.SGran != "" {
		parsed, err := stt.ParseSpatialGranularity(s.SGran)
		if err != nil {
			return nil, nil, err
		}
		sg = parsed
	}
	if tg.FinerThan(in.TGran) {
		return nil, nil, fmt.Errorf("cannot refine temporal granularity %s to %s", in.TGran, tg)
	}
	if in.SGran.CoarserThan(sg) {
		return nil, nil, fmt.Errorf("cannot refine spatial granularity %s to %s", in.SGran, sg)
	}
	out := in.WithGranularities(tg, sg)
	fn := func(t *stt.Tuple) (*stt.Tuple, error) {
		return t.Coarsen(out)
	}
	return fn, out, nil
}

// apply runs the step pipeline on one tuple.
func (o *Transform) apply(t *stt.Tuple) (*stt.Tuple, error) {
	cur := t
	for _, step := range o.steps {
		next, err := step(cur)
		if err != nil {
			return nil, err
		}
		if next == nil {
			return nil, nil
		}
		cur = next
	}
	return cur, nil
}
