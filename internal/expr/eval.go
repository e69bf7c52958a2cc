package expr

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/stt"
)

// Scope carries the runtime tuples an expression evaluates against.
type Scope struct {
	Tuple *stt.Tuple // single-input operations
	Left  *stt.Tuple // join predicates
	Right *stt.Tuple
}

// EvalError reports a runtime evaluation failure (e.g. division by zero).
type EvalError struct {
	Node Node
	Err  error
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("expr: evaluating %q: %v", e.Node.String(), e.Err)
}

func (e *EvalError) Unwrap() error { return e.Err }

// Eval evaluates the compiled expression against the scope.
func (c *Compiled) Eval(s Scope) (stt.Value, error) { return c.fn(s) }

// EvalBool evaluates the expression as a condition using truthiness.
func (c *Compiled) EvalBool(s Scope) (bool, error) {
	v, err := c.fn(s)
	return v.Truthy(), err
}

// EvalTuple is a convenience for the common single-tuple case.
func (c *Compiled) EvalTuple(t *stt.Tuple) (stt.Value, error) {
	return c.fn(Scope{Tuple: t})
}

// evalFn is one node of a compiled expression. On error it returns null.
type evalFn func(Scope) (stt.Value, error)

// compile turns a checked tree into closures. Every per-tuple decision the
// tree allows to be made once is made here: field slots, operators and
// builtins are resolved, and nothing is looked up by name at run time
// unless a tuple of another schema than env's arrives.
func compile(n Node, env Env) evalFn {
	switch t := n.(type) {
	case *Lit:
		v := t.Value
		return func(Scope) (stt.Value, error) { return v, nil }
	case *Ident:
		return compileIdent(t, env)
	case *Unary:
		x := compile(t.X, env)
		if t.Op == "!" {
			return func(s Scope) (stt.Value, error) {
				v, err := x(s)
				if err != nil {
					return stt.Null(), err
				}
				return stt.Bool(!v.Truthy()), nil
			}
		}
		return func(s Scope) (stt.Value, error) {
			v, err := x(s)
			if err != nil || v.IsNull() {
				return stt.Null(), err
			}
			if v, err = v.Neg(); err != nil {
				return stt.Null(), &EvalError{Node: t, Err: err}
			}
			return v, nil
		}
	case *Binary:
		return compileBinary(t, env)
	case *Call:
		return compileCall(t, env)
	}
	panic(fmt.Sprintf("expr: compile of unchecked node %T", n))
}

// compileIdent resolves a field to its slot in env's schema for its side.
// A tuple of another schema is read by name, so a wrong slot is never read.
func compileIdent(t *Ident, env Env) evalFn {
	side := sides[t.Qualifier]
	schema := env.schema(side)
	unbound := func() (stt.Value, error) {
		return stt.Null(), &EvalError{Node: t, Err: fmt.Errorf("no tuple bound for %q", t.String())}
	}
	if m, ok := metas[t.Name]; ok {
		get := m.get
		return func(s Scope) (stt.Value, error) {
			tup := [...]*stt.Tuple{s.Tuple, s.Left, s.Right}[side]
			if tup == nil {
				return unbound()
			}
			return get(tup), nil
		}
	}
	slot := schema.IndexOf(t.Name)
	return func(s Scope) (stt.Value, error) {
		tup := [...]*stt.Tuple{s.Tuple, s.Left, s.Right}[side]
		if tup == nil {
			return unbound()
		}
		if tup.Schema == schema {
			return tup.Values[slot], nil
		}
		v, ok := tup.Get(t.Name)
		if !ok {
			return stt.Null(), &EvalError{Node: t, Err: fmt.Errorf("tuple has no field %q", t.Name)}
		}
		return v, nil
	}
}

// both evaluates two operands left to right.
func both(l, r evalFn, s Scope) (stt.Value, stt.Value, error) {
	lv, err := l(s)
	if err != nil {
		return lv, lv, err
	}
	rv, err := r(s)
	return lv, rv, err
}

// orders maps an ordering operator to its verdict on Compare's -1, 0, +1.
var orders = map[string][3]bool{
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

var arith = map[string]func(stt.Value, stt.Value) (stt.Value, error){
	"+": stt.Value.Add, "-": stt.Value.Sub, "*": stt.Value.Mul, "/": stt.Value.Div, "%": stt.Value.Mod,
}

// compileBinary compiles an operator. && and || short-circuit; null makes a
// comparison false (== and != treat null as a value) and arithmetic null.
func compileBinary(t *Binary, env Env) evalFn {
	l, r := compile(t.L, env), compile(t.R, env)
	switch t.Op {
	case "&&", "||":
		decided := t.Op == "||" // a left operand this truthy decides
		return func(s Scope) (stt.Value, error) {
			lv, err := l(s)
			if err != nil {
				return stt.Null(), err
			}
			if lv.Truthy() == decided {
				return stt.Bool(decided), nil
			}
			rv, err := r(s)
			if err != nil {
				return stt.Null(), err
			}
			return stt.Bool(rv.Truthy()), nil
		}
	case "==", "!=":
		eq := t.Op == "=="
		return func(s Scope) (stt.Value, error) {
			lv, rv, err := both(l, r, s)
			if err != nil {
				return stt.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return stt.Bool((lv.IsNull() && rv.IsNull()) == eq), nil
			}
			return stt.Bool(lv.Equal(rv) == eq), nil
		}
	}
	if verdict, ok := orders[t.Op]; ok {
		return func(s Scope) (stt.Value, error) {
			lv, rv, err := both(l, r, s)
			if err != nil {
				return stt.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return stt.Bool(false), nil
			}
			c, err := lv.Compare(rv)
			if err != nil {
				return stt.Null(), &EvalError{Node: t, Err: err}
			}
			return stt.Bool(verdict[c+1]), nil
		}
	}
	op, code := arith[t.Op], t.Op[0]
	return func(s Scope) (stt.Value, error) {
		lv, rv, err := both(l, r, s)
		if err != nil || lv.IsNull() || rv.IsNull() {
			return stt.Null(), err
		}
		// A float with a number, the common case of sensor formulas, skips
		// the kind dispatch of stt.Value's methods.
		if lk, rk := lv.Kind(), rv.Kind(); (lk == stt.KindFloat || rk == stt.KindFloat) && lk.Numeric() && rk.Numeric() {
			switch a, b := lv.AsFloat(), rv.AsFloat(); code {
			case '+':
				return stt.Float(a + b), nil
			case '-':
				return stt.Float(a - b), nil
			case '*':
				return stt.Float(a * b), nil
			case '/':
				return stt.Float(a / b), nil
			}
		}
		v, err := op(lv, rv)
		if err != nil {
			return stt.Null(), &EvalError{Node: t, Err: err}
		}
		return v, nil
	}
}

// compileCall binds a builtin's fixed-arity entry to its argument closures.
// Arguments are evaluated left to right, all of them, before the call.
func compileCall(t *Call, env Env) evalFn {
	fn := builtins[t.Func]
	args := make([]evalFn, len(t.Args))
	for i, a := range t.Args {
		args[i] = compile(a, env)
	}
	switch {
	case fn.variadic:
		step := fn.f2
		return func(s Scope) (stt.Value, error) {
			acc, err := args[0](s)
			if err != nil {
				return stt.Null(), err
			}
			for _, a := range args[1:] {
				v, err := a(s)
				if err != nil {
					return stt.Null(), err
				}
				acc = step(acc, v)
			}
			return acc, nil
		}
	case fn.f1 != nil:
		a, f := args[0], fn.f1
		return func(s Scope) (stt.Value, error) {
			v, err := a(s)
			if err != nil || v.IsNull() {
				return stt.Null(), err
			}
			return f(v), nil
		}
	case fn.f2 != nil:
		a, b, f := args[0], args[1], fn.f2
		return func(s Scope) (stt.Value, error) {
			x, y, err := both(a, b, s)
			if err != nil || x.IsNull() || y.IsNull() {
				return stt.Null(), err
			}
			return f(x, y), nil
		}
	case t.Func == "if":
		return func(s Scope) (stt.Value, error) {
			c, err := args[0](s)
			if err != nil {
				return stt.Null(), err
			}
			x, y, err := both(args[1], args[2], s)
			if err != nil {
				return stt.Null(), err
			}
			if c.Truthy() {
				return x, nil
			}
			return y, nil
		}
	}
	// distance_m, the only four-argument builtin.
	return func(s Scope) (stt.Value, error) {
		var p [4]float64
		null := false
		for i, a := range args {
			v, err := a(s)
			if err != nil {
				return stt.Null(), err
			}
			p[i], null = v.AsFloat(), null || v.IsNull()
		}
		if null {
			return stt.Null(), nil
		}
		return stt.Float(geo.Point{Lat: p[0], Lon: p[1]}.DistanceMeters(geo.Point{Lat: p[2], Lon: p[3]})), nil
	}
}

// kindAny and kindNum are pseudo-kinds for builtin signatures.
const (
	kindAny = stt.Kind(200)
	kindNum = stt.Kind(201)
)

// builtin is one function of the language. A null argument makes a call of
// f1 or f2 null before it runs; a variadic builtin folds f2 over all its
// arguments, nulls included. compileCall itself compiles if and distance_m.
type builtin struct {
	params   []stt.Kind // kindAny/kindNum allowed; last repeats if variadic
	variadic bool
	result   func(args []stt.Kind) stt.Kind
	f1       func(stt.Value) stt.Value
	f2       func(a, b stt.Value) stt.Value
}

func fixedKind(k stt.Kind) func([]stt.Kind) stt.Kind {
	return func([]stt.Kind) stt.Kind { return k }
}

func num1(f func(float64) float64) builtin {
	return builtin{params: []stt.Kind{kindNum}, result: fixedKind(stt.KindFloat),
		f1: func(a stt.Value) stt.Value { return stt.Float(f(a.AsFloat())) }}
}

func str1(k stt.Kind, f func(string) stt.Value) builtin {
	return builtin{params: []stt.Kind{stt.KindString}, result: fixedKind(k),
		f1: func(a stt.Value) stt.Value { return f(a.AsString()) }}
}

func str2(f func(a, b string) bool) builtin {
	return builtin{params: []stt.Kind{stt.KindString, stt.KindString}, result: fixedKind(stt.KindBool),
		f2: func(a, b stt.Value) stt.Value { return stt.Bool(f(a.AsString(), b.AsString())) }}
}

func time1(f func(time.Time) int) builtin {
	return builtin{params: []stt.Kind{stt.KindTime}, result: fixedKind(stt.KindInt),
		f1: func(a stt.Value) stt.Value { return stt.Int(int64(f(a.AsTime()))) }}
}

// extremum folds min or max, skipping nulls: all-null arguments give null.
func extremum(pick func(a, b float64) float64) builtin {
	return builtin{params: []stt.Kind{kindNum, kindNum}, variadic: true, result: fixedKind(stt.KindFloat),
		f2: func(a, b stt.Value) stt.Value {
			switch {
			case a.IsNull() && b.IsNull():
				return stt.Null()
			case a.IsNull():
				return stt.Float(b.AsFloat())
			case b.IsNull():
				return stt.Float(a.AsFloat())
			}
			return stt.Float(pick(a.AsFloat(), b.AsFloat()))
		}}
}

// builtins is the function registry of the condition language. It is
// populated in init to break the spurious initialization cycle between the
// registry and Check (which some result inferers call back into).
var builtins map[string]builtin

func init() {
	builtins = builtinDefs()
}

func builtinDefs() map[string]builtin {
	return map[string]builtin{
		"abs": {params: []stt.Kind{kindNum}, result: func(a []stt.Kind) stt.Kind { return a[0] },
			f1: func(a stt.Value) stt.Value {
				if a.Kind() == stt.KindInt {
					return stt.Int(max(a.AsInt(), -a.AsInt()))
				}
				return stt.Float(math.Abs(a.AsFloat()))
			}},
		"sqrt":  num1(math.Sqrt),
		"exp":   num1(math.Exp),
		"log":   num1(math.Log),
		"floor": num1(math.Floor),
		"ceil":  num1(math.Ceil),
		"round": num1(math.Round),
		"pow": {params: []stt.Kind{kindNum, kindNum}, result: fixedKind(stt.KindFloat),
			f2: func(a, b stt.Value) stt.Value { return stt.Float(math.Pow(a.AsFloat(), b.AsFloat())) }},
		"min":          extremum(math.Min),
		"max":          extremum(math.Max),
		"contains":     str2(strings.Contains),
		"startswith":   str2(strings.HasPrefix),
		"endswith":     str2(strings.HasSuffix),
		"matches_date": str2(matchesDate),
		"lower":        str1(stt.KindString, func(s string) stt.Value { return stt.String(strings.ToLower(s)) }),
		"upper":        str1(stt.KindString, func(s string) stt.Value { return stt.String(strings.ToUpper(s)) }),
		"trim":         str1(stt.KindString, func(s string) stt.Value { return stt.String(strings.TrimSpace(s)) }),
		"len":          str1(stt.KindInt, func(s string) stt.Value { return stt.Int(int64(len(s))) }),
		"distance_m":   {params: []stt.Kind{kindNum, kindNum, kindNum, kindNum}, result: fixedKind(stt.KindFloat)},
		"hour":         time1(time.Time.Hour),
		"minute":       time1(time.Time.Minute),
		"weekday":      time1(func(t time.Time) int { return int(t.Weekday()) }),
		"if": {params: []stt.Kind{kindAny, kindAny, kindAny},
			result: func(a []stt.Kind) stt.Kind {
				thenK, elseK := a[1], a[2]
				switch {
				case thenK == elseK:
					return thenK
				case thenK.Numeric() && elseK.Numeric():
					return stt.KindFloat
				case thenK == stt.KindNull:
					return elseK
				}
				return thenK
			}},
		"coalesce": {params: []stt.Kind{kindAny, kindAny}, variadic: true,
			result: func(a []stt.Kind) stt.Kind {
				for _, k := range a {
					if k != stt.KindNull {
						return k
					}
				}
				return stt.KindNull
			},
			f2: func(a, b stt.Value) stt.Value {
				if a.IsNull() {
					return b
				}
				return a
			}},
	}
}

// matchesDate implements the paper's validation-rule example "dates
// conforming to given patterns". The pattern uses Y/M/D/h/m/s placeholders,
// e.g. "YYYY-MM-DD" or "YYYY/MM/DD hh:mm".
func matchesDate(s, pat string) bool {
	if len(s) != len(pat) {
		return false
	}
	for i := 0; i < len(pat); i++ {
		switch pat[i] {
		case 'Y', 'M', 'D', 'h', 'm', 's':
			if s[i] < '0' || s[i] > '9' {
				return false
			}
		default:
			if s[i] != pat[i] {
				return false
			}
		}
	}
	return true
}

// Builtins returns the sorted names of all builtin functions, for
// documentation and UI autocomplete.
func Builtins() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}
