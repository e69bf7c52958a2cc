package expr

import (
	"testing"
	"time"

	"streamloader/internal/stt"
)

var benchSchema = stt.MustSchema([]stt.Field{
	stt.NewField("temperature", stt.KindFloat, "celsius"),
	stt.NewField("humidity", stt.KindFloat, "percent"),
	stt.NewField("station", stt.KindString, ""),
}, stt.GranMinute, stt.SpatCellDistrict, "weather")

func benchTuple(b *testing.B) *stt.Tuple {
	b.Helper()
	tup, err := stt.NewTuple(benchSchema, []stt.Value{
		stt.Float(27.5), stt.Float(64), stt.String("umeda"),
	})
	if err != nil {
		b.Fatal(err)
	}
	tup.Time = time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	tup.Lat, tup.Lon = 34.69, 135.50
	return tup
}

func benchCompile(b *testing.B, src string) *Compiled {
	b.Helper()
	c, err := Compile(src, Env{Schema: benchSchema})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkParse(b *testing.B) {
	const src = `temperature > 25 && contains(lower(station), "ume") || humidity < 30`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEval times one compiled expression over the bench tuple, and fails
// when an evaluation allocates: the closures allocate nothing of their own.
// (lower of the all-lowercase station returns its argument.)
func benchEval(b *testing.B, src string) {
	c := benchCompile(b, src)
	tup := benchTuple(b)
	eval := func() {
		if _, err := c.EvalTuple(tup); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval()
	}
	if allocs := testing.AllocsPerRun(100, eval); allocs > 0 {
		b.Fatalf("%s: %.1f allocations per evaluation, want 0", src, allocs)
	}
}

func BenchmarkEvalComparison(b *testing.B) { benchEval(b, "temperature > 25") }

func BenchmarkEvalArithmetic(b *testing.B) {
	benchEval(b, "temperature + 0.33*(humidity/100*6.105*exp(17.27*temperature/(237.7+temperature))) - 4")
}

func BenchmarkEvalStringFuncs(b *testing.B) {
	benchEval(b, `contains(lower(station), "ume") && startswith(station, "u")`)
}
