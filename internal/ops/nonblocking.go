package ops

import (
	"fmt"
	"math"
	"time"

	"streamloader/internal/expr"
	"streamloader/internal/geo"
	"streamloader/internal/stt"
)

// Filter implements σ(s, cond): tuples that do not satisfy cond are
// filtered out.
type Filter struct {
	mapOp
	cond *expr.Compiled
}

// NewFilter compiles the condition against the input schema.
func NewFilter(name, cond string, in *stt.Schema) (*Filter, error) {
	c, err := expr.CompileBool(cond, expr.Env{Schema: in})
	if err != nil {
		return nil, fmt.Errorf("filter %s: %w", name, err)
	}
	o := &Filter{cond: c}
	o.mapOp = mapOp{base: base{name: name, kind: KindFilter, out: in}, fn: o.apply}
	return o, nil
}

// apply passes only satisfying tuples.
func (o *Filter) apply(t *stt.Tuple) (*stt.Tuple, error) {
	ok, err := o.cond.EvalBool(expr.Scope{Tuple: t})
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return t, nil
}

// VirtualProperty implements ⊎s⟨p, spec⟩: a new attribute p is added to the
// schema of s according to the specification spec.
type VirtualProperty struct {
	mapOp
	spec *expr.Compiled
}

// NewVirtualProperty compiles the specification and derives the extended
// schema. The unit annotates the new field (may be empty).
func NewVirtualProperty(name, property, spec, unit string, in *stt.Schema) (*VirtualProperty, error) {
	c, err := expr.Compile(spec, expr.Env{Schema: in})
	if err != nil {
		return nil, fmt.Errorf("virtual property %s: %w", name, err)
	}
	kind := c.Kind
	if kind == stt.KindNull {
		return nil, fmt.Errorf("virtual property %s: specification %q has undetermined kind", name, spec)
	}
	outSchema, err := in.WithField(stt.NewField(property, kind, unit))
	if err != nil {
		return nil, fmt.Errorf("virtual property %s: %w", name, err)
	}
	o := &VirtualProperty{spec: c}
	o.mapOp = mapOp{base: base{name: name, kind: KindVirtual, out: outSchema}, fn: o.apply}
	return o, nil
}

// apply extends the tuple with the computed property.
func (o *VirtualProperty) apply(t *stt.Tuple) (*stt.Tuple, error) {
	v, err := o.spec.EvalTuple(t)
	if err != nil {
		return nil, err
	}
	vals := make([]stt.Value, len(t.Values)+1)
	copy(vals, t.Values)
	vals[len(t.Values)] = v
	ext := new(stt.Tuple)
	*ext = *t
	ext.Schema, ext.Values = o.out, vals
	return ext, nil
}

// culler drops a fraction r of matching tuples using a deterministic credit
// accumulator in integer billionths: over any run of n matching tuples it
// keeps ⌊n·(1−r)⌋ or ⌈n·(1−r)⌉, with no randomness and no floating-point
// drift, so replayed experiments cull identically.
type culler struct {
	keepPerBillion int64
	credit         int64
}

const cullScale = 1_000_000_000

func newCuller(rate float64) culler {
	return culler{keepPerBillion: int64(math.Round((1 - rate) * cullScale))}
}

// keep decides whether the next matching tuple survives.
func (c *culler) keep() bool {
	c.credit += c.keepPerBillion
	if c.credit >= cullScale {
		c.credit -= cullScale
		return true
	}
	return false
}

// CullTime implements γr(s, ⟨t1,t2⟩): tuples in the temporal interval
// [t1, t2] are culled by reducing rate r; tuples outside pass through.
type CullTime struct {
	mapOp
	from, to time.Time
	cull     culler
}

// NewCullTime validates the interval and rate.
func NewCullTime(name string, rate float64, from, to time.Time, in *stt.Schema) (*CullTime, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("cull time %s: rate %v outside [0,1]", name, rate)
	}
	if to.Before(from) {
		return nil, fmt.Errorf("cull time %s: interval end %v before start %v", name, to, from)
	}
	o := &CullTime{from: from, to: to, cull: newCuller(rate)}
	o.mapOp = mapOp{base: base{name: name, kind: KindCullTime, out: in}, fn: o.apply}
	return o, nil
}

// apply culls tuples inside the temporal interval.
func (o *CullTime) apply(t *stt.Tuple) (*stt.Tuple, error) {
	inside := !t.Time.Before(o.from) && !t.Time.After(o.to)
	if inside && !o.cull.keep() {
		return nil, nil
	}
	return t, nil
}

// CullSpace implements γr(s, ⟨coord1,coord2⟩): tuples falling in the area
// delimited by the two coordinates are culled by reducing rate r.
type CullSpace struct {
	mapOp
	area geo.Rect
	cull culler
}

// NewCullSpace validates the area and rate.
func NewCullSpace(name string, rate float64, area geo.Rect, in *stt.Schema) (*CullSpace, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("cull space %s: rate %v outside [0,1]", name, rate)
	}
	if !area.Valid() {
		return nil, fmt.Errorf("cull space %s: invalid area %v", name, area)
	}
	o := &CullSpace{area: area, cull: newCuller(rate)}
	o.mapOp = mapOp{base: base{name: name, kind: KindCullSpace, out: in}, fn: o.apply}
	return o, nil
}

// apply culls tuples inside the area.
func (o *CullSpace) apply(t *stt.Tuple) (*stt.Tuple, error) {
	if o.area.Contains(geo.Point{Lat: t.Lat, Lon: t.Lon}) && !o.cull.keep() {
		return nil, nil
	}
	return t, nil
}
