package expr

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"streamloader/internal/stt"
)

func tweetSchema(t *testing.T) *stt.Schema {
	t.Helper()
	return stt.MustSchema([]stt.Field{
		stt.NewField("text", stt.KindString, ""),
		stt.NewField("retweets", stt.KindInt, ""),
		stt.NewField("sentiment", stt.KindFloat, ""),
		stt.NewField("verified", stt.KindBool, ""),
		stt.NewField("posted", stt.KindTime, ""),
	}, stt.GranSecond, stt.SpatPoint, "social")
}

func tweetTuple(t *testing.T) *stt.Tuple {
	t.Helper()
	tup, err := stt.NewTuple(tweetSchema(t), []stt.Value{
		stt.String("Torrential RAIN in Umeda"),
		stt.Int(12),
		stt.Float(-0.25),
		stt.Bool(true),
		stt.Time(time.Date(2016, 3, 15, 9, 30, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tup.Time = time.Date(2016, 3, 15, 9, 30, 5, 0, time.UTC)
	tup.Lat, tup.Lon = 34.70, 135.50
	tup.Theme = "social"
	tup.Source = "twitter-1"
	tup.Seq = 42
	return tup
}

func compileOn(t *testing.T, src string, env Env) *Compiled {
	t.Helper()
	c, err := Compile(src, env)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return c
}

func TestEvalScalars(t *testing.T) {
	env := Env{Schema: tweetSchema(t)}
	tup := tweetTuple(t)
	cases := []struct {
		src  string
		want stt.Value
	}{
		{"1 + 2", stt.Int(3)},
		{"1 + 2 * 3", stt.Int(7)},
		{"(1 + 2) * 3", stt.Int(9)},
		{"10 / 4", stt.Int(2)},
		{"10.0 / 4", stt.Float(2.5)},
		{"7 % 3", stt.Int(1)},
		{"-5 + 2", stt.Int(-3)},
		{"2 < 3", stt.Bool(true)},
		{"2 >= 3", stt.Bool(false)},
		{"1 = 1", stt.Bool(true)},
		{"1 == 2", stt.Bool(false)},
		{"1 != 2", stt.Bool(true)},
		{"true && false", stt.Bool(false)},
		{"true || false", stt.Bool(true)},
		{"!true", stt.Bool(false)},
		{"!(1 > 2)", stt.Bool(true)},
		{`"abc" + "def"`, stt.String("abcdef")},
		{`"abc" < "abd"`, stt.Bool(true)},
		{"null == null", stt.Bool(true)},
		{"null != 1", stt.Bool(true)},
		{"1.5e2", stt.Float(150)},
		{".5 * 4", stt.Float(2)},
		{"retweets", stt.Int(12)},
		{"retweets > 10 && verified", stt.Bool(true)},
		{`contains(lower(text), "rain")`, stt.Bool(true)},
		{`startswith(text, "Torr")`, stt.Bool(true)},
		{`endswith(text, "Umeda")`, stt.Bool(true)},
		{`upper("ab")`, stt.String("AB")},
		{`trim("  x ")`, stt.String("x")},
		{`len(text)`, stt.Int(24)},
		{"abs(-3)", stt.Int(3)},
		{"abs(-3.5)", stt.Float(3.5)},
		{"sqrt(16)", stt.Float(4)},
		{"pow(2, 10)", stt.Float(1024)},
		{"min(3, 1, 2)", stt.Float(1)},
		{"max(3, 1, 2)", stt.Float(3)},
		{"floor(2.7)", stt.Float(2)},
		{"ceil(2.2)", stt.Float(3)},
		{"round(2.5)", stt.Float(3)},
		{"if(retweets > 10, 1, 0)", stt.Int(1)},
		{"coalesce(null, 5)", stt.Int(5)},
		{"hour(posted)", stt.Int(9)},
		{"minute(posted)", stt.Int(30)},
		{"weekday(posted)", stt.Int(2)}, // 2016-03-15 is a Tuesday
		{`matches_date("2016-03-15", "YYYY-MM-DD")`, stt.Bool(true)},
		{`matches_date("2016/03/15", "YYYY-MM-DD")`, stt.Bool(false)},
		{`matches_date("16-3-15", "YYYY-MM-DD")`, stt.Bool(false)},
		{"_lat", stt.Float(34.70)},
		{"_lon", stt.Float(135.50)},
		{"_theme", stt.String("social")},
		{"_source", stt.String("twitter-1")},
		{"_seq", stt.Int(42)},
	}
	for _, c := range cases {
		comp := compileOn(t, c.src, env)
		got, err := comp.EvalTuple(tup)
		if err != nil {
			t.Errorf("Eval(%q): %v", c.src, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Eval(%q) = %v (%s), want %v (%s)",
				c.src, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestDistanceBuiltin(t *testing.T) {
	env := Env{Schema: tweetSchema(t)}
	tup := tweetTuple(t)
	c := compileOn(t, "distance_m(_lat, _lon, 34.6937, 135.5023) < 5000", env)
	ok, err := c.EvalBool(Scope{Tuple: tup})
	if err != nil || !ok {
		t.Errorf("tweet should be within 5km of Osaka center: %v %v", ok, err)
	}
}

func TestApparentTemperature(t *testing.T) {
	// The paper's virtual-property example: apparent temperature from
	// temperature and humidity (Steadman's formula, simplified).
	schema := stt.MustSchema([]stt.Field{
		stt.NewField("temperature", stt.KindFloat, "celsius"),
		stt.NewField("humidity", stt.KindFloat, "percent"),
	}, stt.GranMinute, stt.SpatCellDistrict, "weather")
	src := "temperature + 0.33*(humidity/100*6.105*exp(17.27*temperature/(237.7+temperature))) - 4"
	c := compileOn(t, src, Env{Schema: schema})
	if c.Kind != stt.KindFloat {
		t.Fatalf("apparent temperature kind = %s", c.Kind)
	}
	tup, _ := stt.NewTuple(schema, []stt.Value{stt.Float(30), stt.Float(70)})
	v, err := c.EvalTuple(tup)
	if err != nil {
		t.Fatal(err)
	}
	// At 30 C and 70% humidity the apparent temperature is ~35.8 C.
	if v.AsFloat() < 34 || v.AsFloat() > 38 {
		t.Errorf("apparent temperature = %v, want ~35.8", v)
	}
}

func TestShortCircuit(t *testing.T) {
	env := Env{Schema: tweetSchema(t)}
	tup := tweetTuple(t)
	// Division by zero on the right of && must not be reached.
	c := compileOn(t, "false && (1/0 > 0)", env)
	v, err := c.EvalTuple(tup)
	if err != nil {
		t.Fatalf("short circuit && failed: %v", err)
	}
	if v.Truthy() {
		t.Error("false && x = false")
	}
	c = compileOn(t, "true || (1/0 > 0)", env)
	v, err = c.EvalTuple(tup)
	if err != nil || !v.Truthy() {
		t.Error("true || x = true without evaluating x")
	}
	// But it is reached when the left side passes.
	c = compileOn(t, "true && (1/0 > 0)", env)
	if _, err := c.EvalTuple(tup); err == nil {
		t.Error("1/0 must error when reached")
	}
}

func TestNullSemantics(t *testing.T) {
	schema := stt.MustSchema([]stt.Field{
		stt.NewField("x", stt.KindFloat, ""),
	}, stt.GranSecond, stt.SpatPoint)
	tup, _ := stt.NewTuple(schema, []stt.Value{stt.Null()})
	env := Env{Schema: schema}

	for src, want := range map[string]bool{
		"x > 0":     false,
		"x < 0":     false,
		"x == null": true,
		"x != null": false,
	} {
		c := compileOn(t, src, env)
		got, err := c.EvalBool(Scope{Tuple: tup})
		if err != nil {
			t.Errorf("%q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	// Arithmetic with null yields null.
	c := compileOn(t, "x + 1", env)
	v, err := c.EvalTuple(tup)
	if err != nil || !v.IsNull() {
		t.Errorf("null + 1 = %v, %v; want null", v, err)
	}
}

// TestNullInNullOut is the null table of the package doc. A missing
// reading is null; an operation on it must give null (or false, in a
// condition), never fail and never invent a value: a Map error stops a
// deployment, and a made-up 0 or ±Inf is stored as if measured.
func TestNullInNullOut(t *testing.T) {
	schema := stt.MustSchema([]stt.Field{
		stt.NewField("x", stt.KindFloat, ""),
		stt.NewField("s", stt.KindString, ""),
		stt.NewField("t", stt.KindTime, ""),
	}, stt.GranSecond, stt.SpatPoint)
	tup, _ := stt.NewTuple(schema, []stt.Value{stt.Null(), stt.Null(), stt.Null()})
	env := Env{Schema: schema}
	for _, c := range []struct {
		src  string
		want stt.Value
	}{
		{"-x", stt.Null()},
		{"-x > 0", stt.Bool(false)},
		{"-(x + 1) * 2", stt.Null()},
		{"x % 2", stt.Null()},
		{"min(x, x)", stt.Null()},
		{"max(x, x, x)", stt.Null()},
		{"min(x, 3, x)", stt.Float(3)},
		{"max(x, -2)", stt.Float(-2)},
		{"hour(t)", stt.Null()},
		{"minute(t)", stt.Null()},
		{"weekday(t)", stt.Null()},
		{"distance_m(x, 135.5, 34.7, 135.5)", stt.Null()},
		{"distance_m(34.7, 135.5, 34.7, x)", stt.Null()},
		{"abs(x)", stt.Null()},
		{"sqrt(x)", stt.Null()},
		{"pow(2, x)", stt.Null()},
		{"len(s)", stt.Null()},
		{"lower(s)", stt.Null()},
		{`contains(s, "a")`, stt.Null()},
		{`matches_date(s, "YYYY")`, stt.Null()},
		{"coalesce(x, 2)", stt.Int(2)},
		{"coalesce(x, x)", stt.Null()},
		{"if(x, 1, 2)", stt.Int(2)},
		{"if(true, x, 2)", stt.Null()},
		{"x == null", stt.Bool(true)},
		{"x != 1", stt.Bool(true)},
		{"!x", stt.Bool(true)},
		{"x && true", stt.Bool(false)},
		{"x || true", stt.Bool(true)},
	} {
		got, err := compileOn(t, c.src, env).EvalTuple(tup)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v (%s), want %v (%s)", c.src, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "1)", "foo(", `"unterminated`, "@x", "1 ? 2",
		"a .", "a.1", `"bad \q escape"`, "f(1,", "1 2", "* 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("temperature >")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos == 0 || !strings.Contains(se.Error(), "offset") {
		t.Errorf("unhelpful syntax error: %v", se)
	}
}

func TestCheckErrors(t *testing.T) {
	env := Env{Schema: tweetSchema(t)}
	bad := []string{
		"ghost > 1",         // unknown field
		"text > 1",          // string vs int ordering
		"-text",             // unary minus on string
		"text * 2",          // arithmetic on string
		"frobnicate(1)",     // unknown function
		"abs()",             // arity
		"abs(1, 2)",         // arity
		"contains(text)",    // arity
		"contains(1, text)", // argument kind
		"lower(retweets)",   // argument kind
		"hour(text)",        // argument kind
		"left.retweets > 1", // no left input in single env
		"verified + 1",      // bool arithmetic
		"posted - posted",   // time arithmetic unsupported
	}
	for _, src := range bad {
		if _, err := Compile(src, env); err == nil {
			t.Errorf("Compile(%q) succeeded, want type error", src)
		}
	}
}

func TestCompileBool(t *testing.T) {
	env := Env{Schema: tweetSchema(t)}
	if _, err := CompileBool("retweets > 3", env); err != nil {
		t.Errorf("bool condition rejected: %v", err)
	}
	if _, err := CompileBool("retweets + 3", env); err == nil {
		t.Error("int-valued condition accepted")
	}
}

func TestJoinPredicate(t *testing.T) {
	weather := stt.MustSchema([]stt.Field{
		stt.NewField("temperature", stt.KindFloat, "celsius"),
		stt.NewField("station", stt.KindString, ""),
	}, stt.GranMinute, stt.SpatCellDistrict, "weather")
	traffic := stt.MustSchema([]stt.Field{
		stt.NewField("congestion", stt.KindFloat, ""),
		stt.NewField("station", stt.KindString, ""),
	}, stt.GranMinute, stt.SpatCellDistrict, "traffic")
	env := Env{Left: weather, Right: traffic}

	c, err := Compile("left.station == right.station && left.temperature > 25", env)
	if err != nil {
		t.Fatal(err)
	}
	lt, _ := stt.NewTuple(weather, []stt.Value{stt.Float(30), stt.String("umeda")})
	rt, _ := stt.NewTuple(traffic, []stt.Value{stt.Float(0.9), stt.String("umeda")})
	ok, err := c.EvalBool(Scope{Left: lt, Right: rt})
	if err != nil || !ok {
		t.Errorf("join predicate = %v, %v; want true", ok, err)
	}
	rt2, _ := stt.NewTuple(traffic, []stt.Value{stt.Float(0.9), stt.String("namba")})
	ok, err = c.EvalBool(Scope{Left: lt, Right: rt2})
	if err != nil || ok {
		t.Errorf("join predicate mismatch = %v, %v; want false", ok, err)
	}

	// Unqualified field in two-input context is a type error.
	if _, err := Compile("station == station", env); err == nil {
		t.Error("unqualified field must be rejected in join context")
	}
	// Unknown side fields.
	if _, err := Compile("left.ghost == right.station", env); err == nil {
		t.Error("unknown left field must be rejected")
	}
	if _, err := Compile("left.station == right.ghost", env); err == nil {
		t.Error("unknown right field must be rejected")
	}
	if _, err := Compile("middle.station == 1", env); err == nil {
		t.Error("unknown qualifier must be rejected")
	}
}

func TestFields(t *testing.T) {
	n, err := Parse("left.a > right.b && c + d > 2 && contains(c, \"x\")")
	if err != nil {
		t.Fatal(err)
	}
	fs := Fields(n)
	if len(fs["left"]) != 1 || fs["left"][0] != "a" {
		t.Errorf("left fields = %v", fs["left"])
	}
	if len(fs["right"]) != 1 || fs["right"][0] != "b" {
		t.Errorf("right fields = %v", fs["right"])
	}
	if len(fs[""]) != 2 {
		t.Errorf("unqualified fields = %v", fs[""])
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3",
		"(1 + 2) * 3",
		"a - (b - c)",
		"a - b - c",
		"-(a + b)",
		"!(a && b) || c",
		`contains(lower(text), "rain") && retweets >= 10`,
		"left.station == right.station",
		"if(x > 0, 1, -1)",
		"a / b % c",
		`"he said \"hi\""`,
		"-5",
		"1.5e-3 < x",
	}
	for _, src := range srcs {
		n1, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := n1.String()
		n2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q (printed %q): %v", src, printed, err)
			continue
		}
		if n2.String() != printed {
			t.Errorf("print not stable: %q -> %q -> %q", src, printed, n2.String())
		}
	}
}

// Property: for random integer triples, the printed form of a parsed
// arithmetic expression evaluates to the same value as the original.
func TestQuickPrintEvalEquivalence(t *testing.T) {
	schema := stt.MustSchema([]stt.Field{
		stt.NewField("a", stt.KindInt, ""),
		stt.NewField("b", stt.KindInt, ""),
		stt.NewField("c", stt.KindInt, ""),
	}, stt.GranSecond, stt.SpatPoint)
	env := Env{Schema: schema}
	exprs := []string{
		"a + b * c", "(a + b) * c", "a - b - c", "a - (b - c)",
		"a * b + c * a", "a % (b + 7) + c", "-a + b", "a + -b",
		"max(a, b) - min(b, c)", "abs(a - b) + abs(b - c)",
	}
	f := func(a, b, c int16, pick uint8) bool {
		src := exprs[int(pick)%len(exprs)]
		c1, err := Compile(src, env)
		if err != nil {
			return false
		}
		c2, err := Compile(c1.Root.String(), env)
		if err != nil {
			return false
		}
		tup, err := stt.NewTuple(schema, []stt.Value{
			stt.Int(int64(a)), stt.Int(int64(b)), stt.Int(int64(c)),
		})
		if err != nil {
			return false
		}
		v1, err1 := c1.EvalTuple(tup)
		v2, err2 := c2.EvalTuple(tup)
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		return v1.Equal(v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestBuiltinsList(t *testing.T) {
	names := Builtins()
	if len(names) < 20 {
		t.Errorf("expected >= 20 builtins, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Builtins() must be sorted")
		}
	}
	found := false
	for _, n := range names {
		if n == "distance_m" {
			found = true
		}
	}
	if !found {
		t.Error("distance_m must be registered")
	}
}

func TestEvalAgainstMissingTuple(t *testing.T) {
	env := Env{Schema: tweetSchema(t)}
	c := compileOn(t, "retweets > 1", env)
	if _, err := c.Eval(Scope{}); err == nil {
		t.Error("evaluating without a tuple must fail")
	}
}
