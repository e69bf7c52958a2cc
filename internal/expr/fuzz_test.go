package expr

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"streamloader/internal/stt"
)

// The fuzz schema has a field of every kind; g is a second float, mostly
// null. fuzzOther names the same fields in another order, with f an int, g a
// string and b missing: a compiled expression reads its tuples by name, and
// must fail or agree exactly where the walker does.
var (
	fuzzSchema = stt.MustSchema([]stt.Field{
		stt.NewField("i", stt.KindInt, ""),
		stt.NewField("f", stt.KindFloat, ""),
		stt.NewField("g", stt.KindFloat, ""),
		stt.NewField("s", stt.KindString, ""),
		stt.NewField("t", stt.KindTime, ""),
		stt.NewField("b", stt.KindBool, ""),
	}, stt.GranSecond, stt.SpatPoint)
	fuzzOther = stt.MustSchema([]stt.Field{
		stt.NewField("s", stt.KindString, ""),
		stt.NewField("t", stt.KindTime, ""),
		stt.NewField("f", stt.KindInt, ""),
		stt.NewField("i", stt.KindInt, ""),
		stt.NewField("g", stt.KindString, ""),
	}, stt.GranSecond, stt.SpatPoint)
)

// choices reads fuzz bytes as a stream of small choices; past the end it
// chooses 0, which ends every recursion.
type choices struct {
	data []byte
	i    int
}

func (c *choices) pick(n int) int {
	if c.i >= len(c.data) {
		return 0
	}
	c.i++
	return int(c.data[c.i-1]) % n
}

func (c *choices) of(opts ...string) string { return opts[c.pick(len(opts))] }

var (
	fuzzInts    = []stt.Value{stt.Null(), stt.Int(0), stt.Int(1), stt.Int(-3), stt.Int(math.MaxInt64), stt.Int(math.MinInt64)}
	fuzzFloats  = []stt.Value{stt.Null(), stt.Float(math.NaN()), stt.Float(math.Inf(1)), stt.Float(math.Inf(-1)), stt.Float(0), stt.Float(math.Copysign(0, -1)), stt.Float(2.5), stt.Float(1e300), stt.Int(7)}
	fuzzStrings = []stt.Value{stt.Null(), stt.String(""), stt.String("Umeda"), stt.String("2016-03-15"), stt.String(" x ")}
	fuzzTimes   = []stt.Value{stt.Null(), stt.Time(time.Time{}), stt.Time(time.Date(2016, 3, 15, 23, 59, 1, 5, time.UTC))}
	fuzzBools   = []stt.Value{stt.Null(), stt.Bool(true), stt.Bool(false)}
)

// expr writes a random expression of roughly the wanted kind ("num",
// "bool", "str", "time"). One choice in sixteen takes another kind's
// production, so some expressions fail to check and are skipped.
func (c *choices) expr(kind string, depth int) string {
	if c.pick(16) == 15 {
		kind = c.of("num", "bool", "str", "time")
	}
	leaf := depth <= 0 || c.pick(3) == 0
	switch kind {
	case "num":
		if leaf {
			return c.of("i", "f", "g", "_lat", "_lon", "_seq", "0", "2", "-3", "0.5", "1e308", "9223372036854775807", "null")
		}
		d := depth - 1
		switch c.pick(9) {
		case 0:
			return "-(" + c.expr("num", d) + ")"
		case 1, 2:
			return "(" + c.expr("num", d) + c.of(" + ", " - ", " * ", " / ", " % ") + c.expr("num", d) + ")"
		case 3:
			return c.of("abs", "sqrt", "exp", "log", "floor", "ceil", "round") + "(" + c.expr("num", d) + ")"
		case 4:
			args := c.expr("num", d) + ", " + c.expr("num", d)
			if c.pick(2) == 0 {
				args += ", " + c.expr("num", d)
			}
			return c.of("min", "max", "pow", "coalesce") + "(" + args + ")"
		case 5:
			return c.of("hour", "minute", "weekday") + "(" + c.expr("time", d) + ")"
		case 6:
			return "len(" + c.expr("str", d) + ")"
		case 7:
			return "distance_m(" + c.expr("num", d) + ", " + c.expr("num", d) + ", " + c.expr("num", d) + ", " + c.expr("num", d) + ")"
		default:
			return "if(" + c.expr("bool", d) + ", " + c.expr("num", d) + ", " + c.expr("num", d) + ")"
		}
	case "bool":
		if leaf {
			return c.of("b", "true", "false", "null")
		}
		d := depth - 1
		switch c.pick(6) {
		case 0:
			return "(" + c.expr("num", d) + c.of(" < ", " <= ", " > ", " >= ", " == ", " != ") + c.expr("num", d) + ")"
		case 1:
			k := c.of("str", "time")
			return "(" + c.expr(k, d) + c.of(" < ", " >= ", " == ", " != ") + c.expr(k, d) + ")"
		case 2:
			return "(" + c.expr("bool", d) + c.of(" && ", " || ") + c.expr("bool", d) + ")"
		case 3:
			return "!(" + c.expr("bool", d) + ")"
		case 4:
			return c.of("contains", "startswith", "endswith", "matches_date") + "(" + c.expr("str", d) + ", " + c.expr("str", d) + ")"
		default:
			return "if(" + c.expr("bool", d) + ", " + c.expr("bool", d) + ", " + c.expr("bool", d) + ")"
		}
	case "str":
		if leaf {
			return c.of("s", "_theme", "_source", `"Umeda"`, `"YYYY-MM-DD"`, `""`, "null")
		}
		d := depth - 1
		switch c.pick(3) {
		case 0:
			return c.of("lower", "upper", "trim") + "(" + c.expr("str", d) + ")"
		case 1:
			return "(" + c.expr("str", d) + " + " + c.expr("str", d) + ")"
		default:
			return c.of("if(b, ", "coalesce(null, ") + c.expr("str", d) + ", " + c.expr("str", d) + ")"
		}
	default:
		if leaf || c.pick(2) == 0 {
			return c.of("t", "_time", "null")
		}
		return "if(" + c.expr("bool", depth-1) + ", " + c.expr("time", depth-1) + ", " + c.expr("time", depth-1) + ")"
	}
}

// tuple draws a tuple of either fuzz schema, or none at all.
func (c *choices) tuple() *stt.Tuple {
	draw := func(vs []stt.Value) stt.Value { return vs[c.pick(len(vs))] }
	var tup *stt.Tuple
	switch c.pick(8) {
	case 0:
		return nil
	case 1, 2:
		tup = &stt.Tuple{Schema: fuzzOther, Values: []stt.Value{
			draw(fuzzStrings), draw(fuzzTimes), draw(fuzzInts), draw(fuzzInts), draw(fuzzStrings)}}
	default:
		tup = &stt.Tuple{Schema: fuzzSchema, Values: []stt.Value{
			draw(fuzzInts), draw(fuzzFloats), draw(fuzzFloats[:2]), draw(fuzzStrings), draw(fuzzTimes), draw(fuzzBools)}}
	}
	tup.Time = draw(fuzzTimes).AsTime()
	tup.Lat, tup.Lon = draw(fuzzFloats).AsFloat(), draw(fuzzFloats).AsFloat()
	tup.Theme, tup.Source = draw(fuzzStrings).AsString(), draw(fuzzStrings).AsString()
	tup.Seq = uint64(c.pick(3))
	return tup
}

// FuzzCompiledEqualsWalker holds the compiled closures to the reference
// walker: for a random expression over fuzzSchema and random tuples of it
// and of fuzzOther, both must fail, or both give the same value of the same
// kind. Its seeds, run by go test, are a thousand random inputs.
func FuzzCompiledEqualsWalker(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 1000; n++ {
		seed := make([]byte, 8+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &choices{data: data}
		src := c.expr(c.of("num", "bool", "str", "time"), 1+c.pick(5))
		comp, err := Compile(src, Env{Schema: fuzzSchema})
		if err != nil {
			return
		}
		for k := 0; k < 4; k++ {
			s := Scope{Tuple: c.tuple()}
			got, gotErr := comp.Eval(s)
			want, wantErr := walk(comp.Root, s)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s on %v: compiled error %v, walker error %v", src, s.Tuple, gotErr, wantErr)
			}
			if gotErr == nil && got != want && !(isNaN(got) && isNaN(want)) {
				t.Fatalf("%s on %v: compiled %v (%s), walker %v (%s)",
					src, s.Tuple, show(got), got.Kind(), show(want), want.Kind())
			}
		}
	})
}

// isNaN reports a float NaN. NaNs compare equal whatever their payload:
// math.Min returns its own NaN for a NaN argument, the fold the argument's.
func isNaN(v stt.Value) bool { return v.Kind() == stt.KindFloat && math.IsNaN(v.AsFloat()) }

// show prints a value with its float bits, so -0 and 0 differ.
func show(v stt.Value) string {
	if v.Kind() == stt.KindFloat {
		return v.String() + "/" + strconv.FormatUint(math.Float64bits(v.AsFloat()), 16)
	}
	return v.String()
}

// A Compiled is shared: the warehouse caches one per schema for every
// concurrent query. Evaluating it from several goroutines at once must give
// what evaluating it alone gives.
func TestCompiledConcurrentEval(t *testing.T) {
	comp, err := Compile("if(b, f * 2 + i, min(f, g, -i)) + len(lower(s))", Env{Schema: fuzzSchema})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var tuples []*stt.Tuple
	var want []stt.Value
	var wantErr []bool
	for len(tuples) < 64 {
		seed := make([]byte, 32)
		rng.Read(seed)
		if tup := (&choices{data: seed}).tuple(); tup != nil {
			v, err := comp.EvalTuple(tup)
			tuples, want, wantErr = append(tuples, tup), append(want, v), append(wantErr, err != nil)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for k, tup := range tuples {
					v, err := comp.EvalTuple(tup)
					if (err != nil) != wantErr[k] || (err == nil && v != want[k] && !(isNaN(v) && isNaN(want[k]))) {
						t.Errorf("tuple %d: concurrent %v, %v; alone %v (error %v)", k, v, err, want[k], wantErr[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
