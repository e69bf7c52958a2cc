package ops

import (
	"fmt"
	"sort"
	"time"

	"streamloader/internal/expr"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// Activator is the control-plane interface Trigger operations use to start
// and stop sensor streams. *pubsub.Broker satisfies it.
type Activator interface {
	Activate(sensorID string) error
	Deactivate(sensorID string) error
}

// TriggerMode decides how the per-tuple condition aggregates over a window.
type TriggerMode string

// Trigger window modes: "any" fires when at least one tuple of the window
// satisfies the condition, "all" when every tuple does (and the window is
// non-empty).
const (
	TriggerAny TriggerMode = "any"
	TriggerAll TriggerMode = "all"
)

// FireEvent records one trigger decision, for the monitor and for tests.
type FireEvent struct {
	// Op is the trigger operation name.
	Op string
	// WindowStart identifies the evaluated window.
	WindowStart time.Time
	// Fired reports whether the condition held.
	Fired bool
	// Targets are the sensors activated/deactivated when Fired.
	Targets []string
}

// Trigger implements ⊕ON,t / ⊕OFF,t (s, {s1..sn}, cond): every t time
// interval the condition is checked on the tuples collected from s; if it is
// verified, the streams of the target sensors are activated (ON) or
// deactivated (OFF). The operation is pass-through on its data input, so it
// can sit anywhere in a dataflow.
type Trigger struct {
	base
	on       bool
	interval time.Duration
	cond     *expr.Compiled
	mode     TriggerMode
	targets  []string
	act      Activator
	onFire   func(FireEvent)

	windows map[int64][]*stt.Tuple // per-run, reset by Run
}

// NewTriggerOn builds a ⊕ON trigger.
func NewTriggerOn(name string, interval time.Duration, cond string, targets []string,
	mode TriggerMode, act Activator, onFire func(FireEvent), in *stt.Schema) (*Trigger, error) {
	return newTrigger(name, true, interval, cond, targets, mode, act, onFire, in)
}

// NewTriggerOff builds a ⊕OFF trigger.
func NewTriggerOff(name string, interval time.Duration, cond string, targets []string,
	mode TriggerMode, act Activator, onFire func(FireEvent), in *stt.Schema) (*Trigger, error) {
	return newTrigger(name, false, interval, cond, targets, mode, act, onFire, in)
}

func newTrigger(name string, on bool, interval time.Duration, cond string, targets []string,
	mode TriggerMode, act Activator, onFire func(FireEvent), in *stt.Schema) (*Trigger, error) {
	kind := KindTriggerOff
	if on {
		kind = KindTriggerOn
	}
	if interval <= 0 {
		return nil, fmt.Errorf("%s %s: interval must be positive, got %v", kind, name, interval)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("%s %s: needs at least one target sensor", kind, name)
	}
	if act == nil {
		return nil, fmt.Errorf("%s %s: needs an activator", kind, name)
	}
	if mode == "" {
		mode = TriggerAny
	}
	if mode != TriggerAny && mode != TriggerAll {
		return nil, fmt.Errorf("%s %s: unknown mode %q", kind, name, mode)
	}
	c, err := expr.CompileBool(cond, expr.Env{Schema: in})
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", kind, name, err)
	}
	return &Trigger{
		base:     base{name: name, kind: kind, out: in},
		on:       on,
		interval: interval,
		cond:     c,
		mode:     mode,
		targets:  append([]string(nil), targets...),
		act:      act,
		onFire:   onFire,
	}, nil
}

// evaluate decides whether a window's tuples satisfy the trigger condition.
func (tr *Trigger) evaluate(tuples []*stt.Tuple) (bool, error) {
	if len(tuples) == 0 {
		return false, nil
	}
	for _, t := range tuples {
		ok, err := tr.cond.EvalBool(expr.Scope{Tuple: t})
		if err != nil {
			return false, err
		}
		if tr.mode == TriggerAny && ok {
			return true, nil
		}
		if tr.mode == TriggerAll && !ok {
			return false, nil
		}
	}
	return tr.mode == TriggerAll, nil
}

// fire applies the activation side effect.
func (tr *Trigger) fire(w int64) error {
	for _, target := range tr.targets {
		var err error
		if tr.on {
			err = tr.act.Activate(target)
		} else {
			err = tr.act.Deactivate(target)
		}
		if err != nil {
			return fmt.Errorf("%s %s: target %s: %w", tr.kind, tr.name, target, err)
		}
	}
	if tr.onFire != nil {
		tr.onFire(FireEvent{
			Op:          tr.name,
			WindowStart: windowStart(w, tr.interval),
			Fired:       true,
			Targets:     tr.targets,
		})
	}
	return nil
}

func (tr *Trigger) flush(wm time.Time) error {
	var ready []int64
	for w := range tr.windows {
		if !windowStart(w+1, tr.interval).After(wm) {
			ready = append(ready, w)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, w := range ready {
		fired, err := tr.evaluate(tr.windows[w])
		if err != nil {
			return fmt.Errorf("%s %s: %w", tr.kind, tr.name, err)
		}
		if fired {
			if err := tr.fire(w); err != nil {
				return err
			}
		} else if tr.onFire != nil {
			tr.onFire(FireEvent{Op: tr.name, WindowStart: windowStart(w, tr.interval), Fired: false})
		}
		delete(tr.windows, w)
	}
	return nil
}

// Run passes tuples through unchanged while caching them per window; windows
// are evaluated as watermarks pass.
func (tr *Trigger) Run(in []*stream.Stream, out Emitter) error {
	defer out.Close()
	if len(in) != 1 {
		return fmt.Errorf("%s %s: want exactly 1 input, got %d", tr.kind, tr.name, len(in))
	}
	tr.windows = make(map[int64][]*stt.Tuple)
	for item := range in[0].C {
		switch item.Kind {
		case stream.ItemTuple:
			tr.counters.In.Add(1)
			w := windowIndex(item.Tuple.Time, tr.interval)
			tr.windows[w] = append(tr.windows[w], item.Tuple)
			tr.counters.Out.Add(1)
			out.Send(item.Tuple)
		case stream.ItemWatermark:
			if err := tr.flush(item.Watermark); err != nil {
				return err
			}
			out.SendWatermark(item.Watermark)
		case stream.ItemEOS:
			if err := tr.flush(time.Unix(0, 1<<62).UTC()); err != nil {
				return err
			}
		}
	}
	return nil
}
