package expr

import (
	"fmt"

	"streamloader/internal/stt"
)

// Env is the typing environment for an expression: the schema(s) the
// identifiers resolve against. For single-input operations only Schema is
// set; for join predicates Left and Right are set and identifiers must be
// qualified as left.x / right.x.
type Env struct {
	Schema *stt.Schema
	Left   *stt.Schema
	Right  *stt.Schema
}

// metas are the STT metadata fields addressable in every environment.
var metas = map[string]struct {
	kind stt.Kind
	get  func(*stt.Tuple) stt.Value
}{
	"_time":   {stt.KindTime, func(t *stt.Tuple) stt.Value { return stt.Time(t.Time) }},
	"_lat":    {stt.KindFloat, func(t *stt.Tuple) stt.Value { return stt.Float(t.Lat) }},
	"_lon":    {stt.KindFloat, func(t *stt.Tuple) stt.Value { return stt.Float(t.Lon) }},
	"_theme":  {stt.KindString, func(t *stt.Tuple) stt.Value { return stt.String(t.Theme) }},
	"_source": {stt.KindString, func(t *stt.Tuple) stt.Value { return stt.String(t.Source) }},
	"_seq":    {stt.KindInt, func(t *stt.Tuple) stt.Value { return stt.Int(int64(t.Seq)) }},
}

// CheckError is a typing diagnostic.
type CheckError struct {
	Node Node
	Msg  string
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("expr: %s in %q", e.Msg, e.Node.String())
}

func checkErrf(n Node, format string, args ...any) error {
	return &CheckError{Node: n, Msg: fmt.Sprintf(format, args...)}
}

// Check infers the result kind of the expression under env, reporting the
// first typing error. KindNull means "any" (the null literal).
func Check(n Node, env Env) (stt.Kind, error) {
	switch t := n.(type) {
	case *Lit:
		return t.Value.Kind(), nil

	case *Ident:
		return checkIdent(t, env)

	case *Unary:
		k, err := Check(t.X, env)
		if err != nil {
			return stt.KindNull, err
		}
		switch t.Op {
		case "!":
			return stt.KindBool, nil
		case "-":
			if !k.Numeric() && k != stt.KindNull {
				return stt.KindNull, checkErrf(n, "operand of unary - must be numeric, got %s", k)
			}
			return k, nil
		default:
			return stt.KindNull, checkErrf(n, "unknown unary operator %q", t.Op)
		}

	case *Binary:
		lk, err := Check(t.L, env)
		if err != nil {
			return stt.KindNull, err
		}
		rk, err := Check(t.R, env)
		if err != nil {
			return stt.KindNull, err
		}
		return checkBinary(t, lk, rk)

	case *Call:
		return checkCall(t, env)

	default:
		return stt.KindNull, checkErrf(n, "unknown node type %T", n)
	}
}

func checkIdent(t *Ident, env Env) (stt.Kind, error) {
	if m, ok := metas[t.Name]; ok {
		// Metadata resolves in any environment; qualifiers select the side
		// in join predicates but do not change the kind.
		return m.kind, nil
	}
	side, ok := sides[t.Qualifier]
	if !ok {
		return stt.KindNull, checkErrf(t, "unknown qualifier %q (want left/right)", t.Qualifier)
	}
	schema, where := env.schema(side), ""
	switch {
	case side != 0:
		where = t.Qualifier + " "
		if schema == nil {
			return stt.KindNull, checkErrf(t, "no %s input in this context", t.Qualifier)
		}
	case schema != nil:
	case env.Left != nil || env.Right != nil:
		return stt.KindNull, checkErrf(t,
			"unqualified field %q in a two-input predicate; use left.%s or right.%s",
			t.Name, t.Name, t.Name)
	default:
		return stt.KindNull, checkErrf(t, "no schema to resolve %q against", t.Name)
	}
	f, ok := schema.Lookup(t.Name)
	if !ok {
		return stt.KindNull, checkErrf(t, "unknown field %q in %sschema %s", t.Name, where, schema)
	}
	return f.Kind, nil
}

// sides numbers the tuples an identifier can address, by qualifier.
var sides = map[string]int{"": 0, "left": 1, "right": 2}

func (e Env) schema(side int) *stt.Schema { return [...]*stt.Schema{e.Schema, e.Left, e.Right}[side] }

func checkBinary(t *Binary, lk, rk stt.Kind) (stt.Kind, error) {
	anyNull := lk == stt.KindNull || rk == stt.KindNull
	switch t.Op {
	case "||", "&&":
		return stt.KindBool, nil
	case "==", "!=":
		if !anyNull && lk != rk && !(lk.Numeric() && rk.Numeric()) {
			return stt.KindNull, checkErrf(t, "cannot compare %s with %s", lk, rk)
		}
		return stt.KindBool, nil
	case "<", "<=", ">", ">=":
		if anyNull {
			return stt.KindBool, nil
		}
		if lk.Numeric() && rk.Numeric() {
			return stt.KindBool, nil
		}
		if lk == rk && lk.Comparable() {
			return stt.KindBool, nil
		}
		return stt.KindNull, checkErrf(t, "cannot order %s against %s", lk, rk)
	case "+":
		if lk == stt.KindString && rk == stt.KindString {
			return stt.KindString, nil
		}
		fallthrough
	case "-", "*", "/", "%":
		if anyNull {
			return stt.KindFloat, nil
		}
		if lk.Numeric() && rk.Numeric() {
			if lk == stt.KindInt && rk == stt.KindInt {
				return stt.KindInt, nil
			}
			return stt.KindFloat, nil
		}
		return stt.KindNull, checkErrf(t, "operator %q needs numeric operands, got %s and %s", t.Op, lk, rk)
	default:
		return stt.KindNull, checkErrf(t, "unknown operator %q", t.Op)
	}
}

func checkCall(t *Call, env Env) (stt.Kind, error) {
	fn, ok := builtins[t.Func]
	if !ok {
		return stt.KindNull, checkErrf(t, "unknown function %q", t.Func)
	}
	if fn.variadic {
		if len(t.Args) < len(fn.params) {
			return stt.KindNull, checkErrf(t, "%s needs at least %d arguments, got %d",
				t.Func, len(fn.params), len(t.Args))
		}
	} else if len(t.Args) != len(fn.params) {
		return stt.KindNull, checkErrf(t, "%s needs %d arguments, got %d",
			t.Func, len(fn.params), len(t.Args))
	}
	kinds := make([]stt.Kind, len(t.Args))
	for i, a := range t.Args {
		ak, err := Check(a, env)
		if err != nil {
			return stt.KindNull, err
		}
		kinds[i] = ak
		want := fn.params[min(i, len(fn.params)-1)]
		if want == kindAny || ak == stt.KindNull {
			continue
		}
		if want == kindNum {
			if !ak.Numeric() {
				return stt.KindNull, checkErrf(t, "%s argument %d must be numeric, got %s", t.Func, i+1, ak)
			}
			continue
		}
		if stt.Kind(want) != ak {
			return stt.KindNull, checkErrf(t, "%s argument %d must be %s, got %s",
				t.Func, i+1, stt.Kind(want), ak)
		}
	}
	return fn.result(kinds), nil
}

// Compiled is a parsed and type-checked expression, compiled to closures
// over env's field slots. It is immutable and safe for concurrent use.
type Compiled struct {
	Source string
	Root   Node
	Kind   stt.Kind
	fn     evalFn
}

// Compile parses src and type-checks it under env.
func Compile(src string, env Env) (*Compiled, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	k, err := Check(root, env)
	if err != nil {
		return nil, err
	}
	return &Compiled{Source: src, Root: root, Kind: k, fn: compile(root, env)}, nil
}

// CompileBool is Compile plus a check that the expression is usable as a
// condition (bool result; numeric/any tolerated through truthiness).
func CompileBool(src string, env Env) (*Compiled, error) {
	c, err := Compile(src, env)
	if err != nil {
		return nil, err
	}
	if c.Kind != stt.KindBool && c.Kind != stt.KindNull {
		return nil, fmt.Errorf("expr: condition %q has kind %s, want bool", src, c.Kind)
	}
	return c, nil
}
