package ops

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// AggFunc is one of the aggregation functions of Table 1.
type AggFunc string

// The aggregation functions: op ∈ {COUNT, AVG, SUM, MIN, MAX}.
const (
	AggCount AggFunc = "COUNT"
	AggAvg   AggFunc = "AVG"
	AggSum   AggFunc = "SUM"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// Subtractable reports whether the function's partial state can exactly
// un-observe a contribution: COUNT, SUM and AVG carry only a count and a
// sum, both linear, so removing an event is one subtraction. MIN and MAX
// are not — once an extremum is folded in, forgetting it needs a rescan of
// the surviving inputs.
func (f AggFunc) Subtractable() bool {
	switch f {
	case AggCount, AggSum, AggAvg:
		return true
	}
	return false
}

// ParseAggFunc validates an aggregation function name (case-insensitive).
func ParseAggFunc(s string) (AggFunc, error) {
	switch AggFunc(strings.ToUpper(s)) {
	case AggCount:
		return AggCount, nil
	case AggAvg:
		return AggAvg, nil
	case AggSum:
		return AggSum, nil
	case AggMin:
		return AggMin, nil
	case AggMax:
		return AggMax, nil
	}
	return "", fmt.Errorf("ops: unknown aggregation function %q", s)
}

// Aggregate implements @[t,{a1..an}]op(s): every t time interval, aggregate
// s grouped on the attributes {a1..an} and apply op to the aggregated
// attribute. The output schema is the group-by attributes followed by the
// result attribute ("count", or "<op>_<attr>").
type Aggregate struct {
	base
	interval  time.Duration
	fn        AggFunc
	attrIdx   int // -1 for COUNT
	groupIdxs []int

	windows map[int64]map[string]*aggState // per-run, reset by Run
}

type aggState struct {
	groupVals      []stt.Value
	count          int64
	sum            float64
	minV, maxV     float64
	sumLat, sumLon float64
	lastTheme      string
	lastSource     string
}

// NewAggregate validates the configuration against the input schema.
// attr may be empty for COUNT.
func NewAggregate(name string, interval time.Duration, groupBy []string, fn AggFunc, attr string, in *stt.Schema) (*Aggregate, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("aggregate %s: interval must be positive, got %v", name, interval)
	}
	if _, err := ParseAggFunc(string(fn)); err != nil {
		return nil, fmt.Errorf("aggregate %s: %w", name, err)
	}
	a := &Aggregate{
		base:     base{name: name, kind: KindAggregate},
		interval: interval,
		fn:       fn,
		attrIdx:  -1,
	}

	var outFields []stt.Field
	for _, g := range groupBy {
		f, ok := in.Lookup(g)
		if !ok {
			return nil, fmt.Errorf("aggregate %s: unknown group-by attribute %q", name, g)
		}
		a.groupIdxs = append(a.groupIdxs, in.IndexOf(g))
		outFields = append(outFields, f)
	}

	var resultField stt.Field
	if fn == AggCount {
		if attr != "" {
			// COUNT(attr) counts non-null values of attr.
			idx := in.IndexOf(attr)
			if idx < 0 {
				return nil, fmt.Errorf("aggregate %s: unknown attribute %q", name, attr)
			}
			a.attrIdx = idx
			resultField = stt.NewField("count_"+attr, stt.KindInt, "")
		} else {
			resultField = stt.NewField("count", stt.KindInt, "")
		}
	} else {
		if attr == "" {
			return nil, fmt.Errorf("aggregate %s: %s needs an attribute", name, fn)
		}
		f, ok := in.Lookup(attr)
		if !ok {
			return nil, fmt.Errorf("aggregate %s: unknown attribute %q", name, attr)
		}
		if !f.Kind.Numeric() {
			return nil, fmt.Errorf("aggregate %s: %s(%s) needs a numeric attribute, %q is %s",
				name, fn, attr, attr, f.Kind)
		}
		a.attrIdx = in.IndexOf(attr)
		resultField = stt.NewField(strings.ToLower(string(fn))+"_"+attr, stt.KindFloat, f.Unit)
	}
	outFields = append(outFields, resultField)

	// The output is represented at the window's temporal resolution: keep
	// the finest granularity not finer than the input's.
	out, err := stt.NewSchema(outFields, in.TGran, in.SGran, in.Themes...)
	if err != nil {
		return nil, fmt.Errorf("aggregate %s: %w", name, err)
	}
	a.out = out
	return a, nil
}

// groupKey renders the group-by values as a deterministic map key.
func (a *Aggregate) groupKey(t *stt.Tuple) string {
	if len(a.groupIdxs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, idx := range a.groupIdxs {
		if i > 0 {
			b.WriteByte('\x00')
		}
		b.WriteString(t.Values[idx].String())
	}
	return b.String()
}

func (a *Aggregate) absorb(t *stt.Tuple) {
	w := windowIndex(t.Time, a.interval)
	groups := a.windows[w]
	if groups == nil {
		groups = make(map[string]*aggState)
		a.windows[w] = groups
	}
	key := a.groupKey(t)
	st := groups[key]
	if st == nil {
		st = &aggState{minV: math.Inf(1), maxV: math.Inf(-1)}
		st.groupVals = make([]stt.Value, len(a.groupIdxs))
		for i, idx := range a.groupIdxs {
			st.groupVals[i] = t.Values[idx]
		}
		groups[key] = st
	}
	if a.attrIdx >= 0 {
		v := t.Values[a.attrIdx]
		if v.IsNull() {
			// Nulls contribute to neither numeric aggregates nor COUNT(attr).
			st.absorbPosition(t)
			return
		}
		f := v.AsFloat()
		st.count++
		st.sum += f
		st.minV = math.Min(st.minV, f)
		st.maxV = math.Max(st.maxV, f)
	} else {
		st.count++
	}
	st.absorbPosition(t)
}

// absorbPosition accumulates the spatial centroid and STT tags regardless of
// whether the payload contributed to the aggregate.
func (st *aggState) absorbPosition(t *stt.Tuple) {
	st.sumLat += t.Lat
	st.sumLon += t.Lon
	st.lastTheme = t.Theme
	st.lastSource = t.Source
}

// flush emits every window whose end is at or before wm, in window order
// with deterministic group order.
func (a *Aggregate) flush(wm time.Time, out Emitter) {
	var ready []int64
	for w := range a.windows {
		end := windowStart(w+1, a.interval)
		if !end.After(wm) {
			ready = append(ready, w)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, w := range ready {
		groups := a.windows[w]
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		start := windowStart(w, a.interval)
		for _, k := range keys {
			st := groups[k]
			tup := a.emitTuple(st, start)
			if tup != nil {
				a.counters.Out.Add(1)
				out.Send(tup)
			}
		}
		delete(a.windows, w)
	}
}

func (a *Aggregate) emitTuple(st *aggState, windowStart time.Time) *stt.Tuple {
	var result stt.Value
	switch a.fn {
	case AggCount:
		result = stt.Int(st.count)
	case AggSum:
		result = stt.Float(st.sum)
	case AggAvg:
		if st.count == 0 {
			result = stt.Null()
		} else {
			result = stt.Float(st.sum / float64(st.count))
		}
	case AggMin:
		if st.count == 0 {
			result = stt.Null()
		} else {
			result = stt.Float(st.minV)
		}
	case AggMax:
		if st.count == 0 {
			result = stt.Null()
		} else {
			result = stt.Float(st.maxV)
		}
	}
	values := make([]stt.Value, 0, len(st.groupVals)+1)
	values = append(values, st.groupVals...)
	values = append(values, result)

	// The centroid divisor counts every absorbed tuple, including ones with
	// null payloads; count tracks contributing tuples only, so recompute.
	n := float64(st.count)
	if n == 0 {
		n = 1
	}
	tup := &stt.Tuple{
		Schema: a.out,
		Values: values,
		Time:   windowStart,
		Lat:    st.sumLat / n,
		Lon:    st.sumLon / n,
		Theme:  st.lastTheme,
		Source: a.name,
	}
	return tup.AlignSTT()
}

// Run maintains the window cache and flushes on watermarks.
func (a *Aggregate) Run(in []*stream.Stream, out Emitter) error {
	defer out.Close()
	if len(in) != 1 {
		return fmt.Errorf("aggregate %s: want exactly 1 input, got %d", a.name, len(in))
	}
	a.windows = make(map[int64]map[string]*aggState)
	for item := range in[0].C {
		switch item.Kind {
		case stream.ItemTuple:
			a.counters.In.Add(1)
			a.absorb(item.Tuple)
		case stream.ItemWatermark:
			a.flush(item.Watermark, out)
			out.SendWatermark(item.Watermark)
		case stream.ItemEOS:
			a.flush(time.Unix(0, 1<<62).UTC(), out)
		}
	}
	return nil
}
