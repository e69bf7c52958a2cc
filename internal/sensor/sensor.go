package sensor

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/pubsub"
	"streamloader/internal/stt"
)

// Spec configures one simulated sensor.
type Spec struct {
	// ID is the unique sensor identifier.
	ID string
	// Type is the sensor class.
	Type Type
	// Location is where the sensor sits.
	Location geo.Point
	// NodeID is the network node managing the sensor.
	NodeID string
	// Seed makes the generated stream reproducible.
	Seed int64
	// UnitVariant selects among the heterogeneous unit choices of the class
	// (e.g. variant 1 temperature stations report Fahrenheit).
	UnitVariant int
	// FrequencyHz overrides the class default when > 0.
	FrequencyHz float64
}

// Sensor is a deterministic generator for one simulated device. It is not
// safe for concurrent use; each source process owns its sensor.
type Sensor struct {
	spec    Spec
	profile typeProfile
	schema  *stt.Schema
	rng     *rand.Rand
	seq     uint64

	// segments are a traffic sensor's road segment labels, formatted once.
	segments []string

	// weather-model state shared by the physical generators
	wet         bool    // rain Markov state
	rainRate    float64 // current rain intensity, mm/h
	riverLevel  float64 // meters above baseline
	pressureHPa float64
}

// New builds a sensor from its spec.
func New(spec Spec) (*Sensor, error) {
	p, ok := profiles[spec.Type]
	if !ok {
		return nil, fmt.Errorf("sensor: unknown sensor type %q", spec.Type)
	}
	if spec.ID == "" {
		return nil, fmt.Errorf("sensor: spec must carry an ID")
	}
	if !spec.Location.Valid() {
		return nil, fmt.Errorf("sensor %s: invalid location %v", spec.ID, spec.Location)
	}
	if spec.FrequencyHz == 0 {
		spec.FrequencyHz = p.frequencyHz
	}
	if spec.FrequencyHz <= 0 {
		return nil, fmt.Errorf("sensor %s: frequency must be positive", spec.ID)
	}
	s := &Sensor{
		spec:        spec,
		profile:     p,
		schema:      p.schema(spec.UnitVariant),
		rng:         rand.New(rand.NewSource(spec.Seed)),
		pressureHPa: 1013,
	}
	if spec.Type == TypeTraffic {
		for i := range 8 {
			s.segments = append(s.segments, fmt.Sprintf("seg-%s-%02d", spec.ID, i))
		}
	}
	return s, nil
}

// ID returns the sensor identifier.
func (s *Sensor) ID() string { return s.spec.ID }

// Schema returns the tuple schema the sensor produces.
func (s *Sensor) Schema() *stt.Schema { return s.schema }

// Period returns the interval between consecutive readings.
func (s *Sensor) Period() time.Duration {
	return time.Duration(float64(time.Second) / s.spec.FrequencyHz)
}

// Meta returns the publication record for the pub/sub layer.
func (s *Sensor) Meta() pubsub.SensorMeta {
	return pubsub.SensorMeta{
		ID:          s.spec.ID,
		Type:        string(s.spec.Type),
		Schema:      s.schema,
		FrequencyHz: s.spec.FrequencyHz,
		Location:    s.spec.Location,
		NodeID:      s.spec.NodeID,
		Themes:      s.profile.themes,
	}
}

// At produces the reading at event time ts. Consecutive calls must pass
// non-decreasing timestamps; the generator evolves internal state (rain
// bursts, river response) between calls. The tuple is STT-aligned and
// carries the sensor's location, theme and a monotone sequence number.
func (s *Sensor) At(ts time.Time) *stt.Tuple {
	var values []stt.Value
	switch s.spec.Type {
	case TypeTemperature:
		values = s.temperatureAt(ts)
	case TypeHumidity:
		values = s.humidityAt(ts)
	case TypeRain:
		values = s.rainAt(ts)
	case TypeWind:
		values = s.windAt(ts)
	case TypePressure:
		values = s.pressureAt()
	case TypeRiverLevel:
		values = s.riverAt(ts)
	case TypeTweet:
		values = s.tweetAt(ts)
	case TypeTraffic:
		values = s.trafficAt(ts)
	case TypeTrain:
		values = s.trainAt()
	}
	tup := &stt.Tuple{
		Schema: s.schema,
		Values: values,
		Time:   ts,
		Lat:    s.spec.Location.Lat,
		Lon:    s.spec.Location.Lon,
		Theme:  s.profile.themes[0],
		Source: s.spec.ID,
		Seq:    s.seq,
	}
	s.seq++
	return tup.AlignSTT()
}

// Emit generates the readings in [from, to) at the sensor's frequency and
// passes each to emit; generation stops early if emit returns false.
func (s *Sensor) Emit(from, to time.Time, emit func(*stt.Tuple) bool) {
	period := s.Period()
	for ts := from; ts.Before(to); ts = ts.Add(period) {
		if !emit(s.At(ts)) {
			return
		}
	}
}

// dayFraction maps a timestamp to [0,1) across the UTC day.
func dayFraction(ts time.Time) float64 {
	t := ts.UTC()
	return (float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600) / 24
}

// diurnal returns a smooth daily cycle in [-1, 1] peaking at peakHour.
func diurnal(ts time.Time, peakHour float64) float64 {
	return math.Cos(2 * math.Pi * (dayFraction(ts) - peakHour/24))
}

// baseTemperature is the underlying deterministic Celsius temperature model:
// a seasonal baseline (fixed at late-spring Osaka), a diurnal cycle peaking
// at 14:00, and spatial variation by latitude.
func (s *Sensor) baseTemperature(ts time.Time) float64 {
	base := 22.0 - (s.spec.Location.Lat-34.5)*2
	return base + 6*diurnal(ts, 14)
}

func (s *Sensor) temperatureAt(ts time.Time) []stt.Value {
	c := s.baseTemperature(ts) + s.rng.NormFloat64()*0.4
	if s.schema.Field(0).Unit == "fahrenheit" {
		c = c*9/5 + 32
	}
	return []stt.Value{stt.Float(round1(c)), stt.String(s.spec.ID)}
}

func (s *Sensor) humidityAt(ts time.Time) []stt.Value {
	// Humidity is anti-correlated with the diurnal temperature cycle.
	h := 65 - 15*diurnal(ts, 14) + s.rng.NormFloat64()*3
	h = clamp(h, 20, 100)
	return []stt.Value{stt.Float(round1(h)), stt.String(s.spec.ID)}
}

// stepRain advances the two-state (dry/wet) rain model one reading.
func (s *Sensor) stepRain() {
	if s.wet {
		if s.rng.Float64() < 0.10 { // bursts last ~10 readings
			s.wet = false
			s.rainRate = 0
		} else {
			// Intensity wanders within the burst; occasionally torrential.
			s.rainRate = clamp(s.rainRate+s.rng.NormFloat64()*4, 0.5, 120)
		}
	} else {
		if s.rng.Float64() < 0.03 { // ~3% chance a burst starts
			s.wet = true
			s.rainRate = 2 + s.rng.Float64()*20
			if s.rng.Float64() < 0.15 {
				s.rainRate += 40 // torrential onset
			}
		}
	}
}

func (s *Sensor) rainAt(time.Time) []stt.Value {
	s.stepRain()
	rate := s.rainRate
	if s.schema.Field(0).Unit == "inch/h" {
		rate /= 25.4
	}
	return []stt.Value{stt.Float(round2(rate)), stt.String(s.spec.ID)}
}

func (s *Sensor) windAt(ts time.Time) []stt.Value {
	speed := 3 + 2*diurnal(ts, 15) + math.Abs(s.rng.NormFloat64())*2
	if s.schema.Field(0).Unit == "mph" {
		speed /= 0.44704
	}
	dir := math.Mod(float64(s.rng.Intn(360))+s.rng.Float64(), 360)
	return []stt.Value{stt.Float(round1(speed)), stt.Float(round1(dir))}
}

func (s *Sensor) pressureAt() []stt.Value {
	// Slow random walk around 1013 hPa.
	s.pressureHPa = clamp(s.pressureHPa+s.rng.NormFloat64()*0.3, 980, 1040)
	return []stt.Value{stt.Float(round1(s.pressureHPa))}
}

func (s *Sensor) riverAt(time.Time) []stt.Value {
	// The river integrates its own local rain model and decays toward the
	// baseline: a burst of rain raises the level over the following readings.
	s.stepRain()
	s.riverLevel = s.riverLevel*0.97 + s.rainRate*0.01
	level := 1.5 + s.riverLevel // meters, 1.5 m baseline
	if s.schema.Field(0).Unit == "yard" {
		level /= 0.9144
	}
	return []stt.Value{stt.Float(round2(level)), stt.String(s.spec.ID)}
}

var tweetTopics = []struct {
	weight int
	texts  []string
}{
	{4, []string{
		"heavy rain in %s right now", "torrential rain flooding the street near %s",
		"it is pouring in %s", "rain will not stop in %s today",
	}},
	{3, []string{
		"so hot in %s today", "this heat in %s is unbearable", "scorching afternoon in %s",
	}},
	{3, []string{
		"traffic jam on the %s loop again", "accident blocking two lanes near %s",
		"bumper to bumper near %s station",
	}},
	{5, []string{
		"lunch in %s was great", "nice view from the %s tower", "meeting friends in %s",
		"shopping in %s", "great concert tonight in %s",
	}},
}

var districtNames = []string{"Umeda", "Namba", "Tennoji", "Sakai", "Suita", "Yodogawa"}

func (s *Sensor) tweetAt(time.Time) []stt.Value {
	total := 0
	for _, t := range tweetTopics {
		total += t.weight
	}
	pick := s.rng.Intn(total)
	var texts []string
	for _, t := range tweetTopics {
		if pick < t.weight {
			texts = t.texts
			break
		}
		pick -= t.weight
	}
	district := districtNames[s.rng.Intn(len(districtNames))]
	text := fmt.Sprintf(texts[s.rng.Intn(len(texts))], district)
	user := fmt.Sprintf("user%04d", s.rng.Intn(10000))
	retweets := int64(0)
	if s.rng.Float64() < 0.2 {
		retweets = int64(s.rng.Intn(50))
	}
	return []stt.Value{stt.String(text), stt.String(user), stt.Int(retweets)}
}

func (s *Sensor) trafficAt(ts time.Time) []stt.Value {
	// Congestion peaks at the 8:00 and 18:00 rush hours.
	rush := math.Max(diurnal(ts, 8), diurnal(ts, 18))
	congestion := clamp(0.25+0.5*rush+s.rng.NormFloat64()*0.08, 0, 1)
	speed := 60 * (1 - congestion*0.8) // km/h free-flow 60
	if s.schema.Field(1).Unit == "mph" {
		speed *= 0.621371
	}
	segment := s.segments[s.rng.Intn(len(s.segments))]
	return []stt.Value{stt.Float(round2(congestion)), stt.Float(round1(speed)), stt.String(segment)}
}

var trainLines = []string{"Midosuji", "Tanimachi", "Yotsubashi", "Chuo", "Sakaisuji", "Loop"}

func (s *Sensor) trainAt() []stt.Value {
	line := trainLines[s.rng.Intn(len(trainLines))]
	delay := 0.0
	cancelled := false
	r := s.rng.Float64()
	switch {
	case r < 0.02:
		cancelled = true
		delay = 30 + s.rng.Float64()*60
	case r < 0.2:
		delay = s.rng.Float64() * 12
	}
	return []stt.Value{stt.String(line), stt.Float(round1(delay)), stt.Bool(cancelled)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }
func round2(v float64) float64 { return math.Round(v*100) / 100 }
