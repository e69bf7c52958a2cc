package expr

import (
	"fmt"
	"math"
	"strings"

	"streamloader/internal/geo"
	"streamloader/internal/stt"
)

// walk is the reference evaluator: the AST walker the closures replaced,
// kept verbatim but for the null rule of the package doc (a null operand of
// unary - and of every builtin but if, coalesce, min and max gives null;
// min and max of nulls only give null). FuzzCompiledEqualsWalker holds the
// closures to it.
func walk(n Node, s Scope) (stt.Value, error) {
	switch t := n.(type) {
	case *Lit:
		return t.Value, nil
	case *Ident:
		return walkIdent(t, s)
	case *Unary:
		x, err := walk(t.X, s)
		if err != nil {
			return stt.Null(), err
		}
		switch t.Op {
		case "!":
			return stt.Bool(!x.Truthy()), nil
		case "-":
			if x.IsNull() {
				return stt.Null(), nil
			}
			v, err := x.Neg()
			if err != nil {
				return stt.Null(), &EvalError{Node: n, Err: err}
			}
			return v, nil
		default:
			return stt.Null(), &EvalError{Node: n, Err: fmt.Errorf("unknown unary op %q", t.Op)}
		}
	case *Binary:
		return walkBinary(t, s)
	case *Call:
		return walkCall(t, s)
	default:
		return stt.Null(), &EvalError{Node: n, Err: fmt.Errorf("unknown node %T", n)}
	}
}

func walkIdent(t *Ident, s Scope) (stt.Value, error) {
	tup := s.Tuple
	switch t.Qualifier {
	case "left":
		tup = s.Left
	case "right":
		tup = s.Right
	}
	if tup == nil {
		return stt.Null(), &EvalError{Node: t, Err: fmt.Errorf("no tuple bound for %q", t.String())}
	}
	switch t.Name {
	case "_time":
		return stt.Time(tup.Time), nil
	case "_lat":
		return stt.Float(tup.Lat), nil
	case "_lon":
		return stt.Float(tup.Lon), nil
	case "_theme":
		return stt.String(tup.Theme), nil
	case "_source":
		return stt.String(tup.Source), nil
	case "_seq":
		return stt.Int(int64(tup.Seq)), nil
	}
	v, ok := tup.Get(t.Name)
	if !ok {
		return stt.Null(), &EvalError{Node: t, Err: fmt.Errorf("tuple has no field %q", t.Name)}
	}
	return v, nil
}

func walkBinary(t *Binary, s Scope) (stt.Value, error) {
	switch t.Op {
	case "&&":
		l, err := walk(t.L, s)
		if err != nil {
			return stt.Null(), err
		}
		if !l.Truthy() {
			return stt.Bool(false), nil
		}
		r, err := walk(t.R, s)
		if err != nil {
			return stt.Null(), err
		}
		return stt.Bool(r.Truthy()), nil
	case "||":
		l, err := walk(t.L, s)
		if err != nil {
			return stt.Null(), err
		}
		if l.Truthy() {
			return stt.Bool(true), nil
		}
		r, err := walk(t.R, s)
		if err != nil {
			return stt.Null(), err
		}
		return stt.Bool(r.Truthy()), nil
	}

	l, err := walk(t.L, s)
	if err != nil {
		return stt.Null(), err
	}
	r, err := walk(t.R, s)
	if err != nil {
		return stt.Null(), err
	}

	switch t.Op {
	case "==":
		if l.IsNull() || r.IsNull() {
			return stt.Bool(l.IsNull() && r.IsNull()), nil
		}
		return stt.Bool(l.Equal(r)), nil
	case "!=":
		if l.IsNull() || r.IsNull() {
			return stt.Bool(l.IsNull() != r.IsNull()), nil
		}
		return stt.Bool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return stt.Bool(false), nil
		}
		c, err := l.Compare(r)
		if err != nil {
			return stt.Null(), &EvalError{Node: t, Err: err}
		}
		switch t.Op {
		case "<":
			return stt.Bool(c < 0), nil
		case "<=":
			return stt.Bool(c <= 0), nil
		case ">":
			return stt.Bool(c > 0), nil
		default:
			return stt.Bool(c >= 0), nil
		}
	}

	if l.IsNull() || r.IsNull() {
		return stt.Null(), nil
	}
	var v stt.Value
	switch t.Op {
	case "+":
		v, err = l.Add(r)
	case "-":
		v, err = l.Sub(r)
	case "*":
		v, err = l.Mul(r)
	case "/":
		v, err = l.Div(r)
	case "%":
		v, err = l.Mod(r)
	default:
		err = fmt.Errorf("unknown operator %q", t.Op)
	}
	if err != nil {
		return stt.Null(), &EvalError{Node: t, Err: err}
	}
	return v, nil
}

func walkCall(t *Call, s Scope) (stt.Value, error) {
	fn, ok := walkBuiltins[t.Func]
	if !ok {
		return stt.Null(), &EvalError{Node: t, Err: fmt.Errorf("unknown function %q", t.Func)}
	}
	args := make([]stt.Value, len(t.Args))
	anyNull := false
	for i, a := range t.Args {
		v, err := walk(a, s)
		if err != nil {
			return stt.Null(), err
		}
		args[i] = v
		anyNull = anyNull || v.IsNull()
	}
	switch t.Func {
	case "if", "coalesce", "min", "max":
	default:
		if anyNull {
			return stt.Null(), nil
		}
	}
	return fn(args), nil
}

func walkNum1(f func(float64) float64) func([]stt.Value) stt.Value {
	return func(a []stt.Value) stt.Value { return stt.Float(f(a[0].AsFloat())) }
}

// walkExtremum is the walker's min/max: a running best from the identity,
// skipping nulls, and null when every argument was.
func walkExtremum(identity float64, pick func(a, b float64) float64) func([]stt.Value) stt.Value {
	return func(a []stt.Value) stt.Value {
		best, seen := identity, false
		for _, v := range a {
			if !v.IsNull() {
				best, seen = pick(best, v.AsFloat()), true
			}
		}
		if !seen {
			return stt.Null()
		}
		return stt.Float(best)
	}
}

var walkBuiltins = map[string]func([]stt.Value) stt.Value{
	"abs": func(a []stt.Value) stt.Value {
		if a[0].Kind() == stt.KindInt {
			v := a[0].AsInt()
			if v < 0 {
				v = -v
			}
			return stt.Int(v)
		}
		return stt.Float(math.Abs(a[0].AsFloat()))
	},
	"sqrt":  walkNum1(math.Sqrt),
	"exp":   walkNum1(math.Exp),
	"log":   walkNum1(math.Log),
	"floor": walkNum1(math.Floor),
	"ceil":  walkNum1(math.Ceil),
	"round": walkNum1(math.Round),
	"pow": func(a []stt.Value) stt.Value {
		return stt.Float(math.Pow(a[0].AsFloat(), a[1].AsFloat()))
	},
	"min": walkExtremum(math.Inf(1), math.Min),
	"max": walkExtremum(math.Inf(-1), math.Max),
	"contains": func(a []stt.Value) stt.Value {
		return stt.Bool(strings.Contains(a[0].AsString(), a[1].AsString()))
	},
	"startswith": func(a []stt.Value) stt.Value {
		return stt.Bool(strings.HasPrefix(a[0].AsString(), a[1].AsString()))
	},
	"endswith": func(a []stt.Value) stt.Value {
		return stt.Bool(strings.HasSuffix(a[0].AsString(), a[1].AsString()))
	},
	"lower": func(a []stt.Value) stt.Value { return stt.String(strings.ToLower(a[0].AsString())) },
	"upper": func(a []stt.Value) stt.Value { return stt.String(strings.ToUpper(a[0].AsString())) },
	"trim":  func(a []stt.Value) stt.Value { return stt.String(strings.TrimSpace(a[0].AsString())) },
	"len":   func(a []stt.Value) stt.Value { return stt.Int(int64(len(a[0].AsString()))) },
	"matches_date": func(a []stt.Value) stt.Value {
		s, pat := a[0].AsString(), a[1].AsString()
		if len(s) != len(pat) {
			return stt.Bool(false)
		}
		for i := 0; i < len(pat); i++ {
			switch pat[i] {
			case 'Y', 'M', 'D', 'h', 'm', 's':
				if s[i] < '0' || s[i] > '9' {
					return stt.Bool(false)
				}
			default:
				if s[i] != pat[i] {
					return stt.Bool(false)
				}
			}
		}
		return stt.Bool(true)
	},
	"distance_m": func(a []stt.Value) stt.Value {
		p := geo.Point{Lat: a[0].AsFloat(), Lon: a[1].AsFloat()}
		q := geo.Point{Lat: a[2].AsFloat(), Lon: a[3].AsFloat()}
		return stt.Float(p.DistanceMeters(q))
	},
	"hour":    func(a []stt.Value) stt.Value { return stt.Int(int64(a[0].AsTime().UTC().Hour())) },
	"minute":  func(a []stt.Value) stt.Value { return stt.Int(int64(a[0].AsTime().UTC().Minute())) },
	"weekday": func(a []stt.Value) stt.Value { return stt.Int(int64(a[0].AsTime().UTC().Weekday())) },
	"if": func(a []stt.Value) stt.Value {
		if a[0].Truthy() {
			return a[1]
		}
		return a[2]
	},
	"coalesce": func(a []stt.Value) stt.Value {
		for _, v := range a {
			if !v.IsNull() {
				return v
			}
		}
		return stt.Null()
	},
}
