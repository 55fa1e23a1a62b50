package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Report is a scenario run's uniform result: named metrics in a fixed
// order and the gates that judge them.
type Report struct {
	Metrics []Metric
	Gates   []Gate
}

// Metric is one named measurement: an int, uint64, float64, bool or
// string.
type Metric struct {
	Name  string
	Value any
}

// Gate bounds one measured value from below (a floor) or, with
// Ceiling, from above. A condition measures 1 when it holds, else 0,
// against a floor of 1.
type Gate struct {
	// Name is the JSON key the bound is reported under; a gate without
	// one shows in the JSON only through "pass".
	Name, What      string
	Measured, Bound float64
	Ceiling         bool
}

// Pass reports whether the measured value is within the bound.
func (g Gate) Pass() bool {
	if g.Ceiling {
		return g.Measured <= g.Bound
	}
	return g.Measured >= g.Bound
}

func (g Gate) String() string {
	rel := ">= floor"
	if g.Ceiling {
		rel = "<= ceiling"
	}
	return fmt.Sprintf("%s: %g, want %s %g", g.What, g.Measured, rel, g.Bound)
}

func floor(name, what string, measured, bound float64) Gate {
	return Gate{Name: name, What: what, Measured: measured, Bound: bound}
}

func must(what string, ok bool) Gate {
	g := Gate{What: what, Bound: 1}
	if ok {
		g.Measured = 1
	}
	return g
}

func zero[N int | uint64](what string, n N) Gate {
	return Gate{What: what, Measured: float64(n), Ceiling: true}
}

// Pass reports whether every gate passes.
func (r Report) Pass() bool {
	for _, g := range r.Gates {
		if !g.Pass() {
			return false
		}
	}
	return true
}

// JSON renders the report as one indented object: the metrics, then
// each named gate's bound, then "pass" when there are gates. The bytes
// equal json.MarshalIndent(v, "", "  ") of a struct declaring the same
// fields in the same order, which is what keeps BENCH files stable.
func (r Report) JSON() ([]byte, error) {
	fields := append([]Metric(nil), r.Metrics...)
	for _, g := range r.Gates {
		if g.Name != "" {
			fields = append(fields, Metric{g.Name, g.Bound})
		}
	}
	if len(r.Gates) > 0 {
		fields = append(fields, Metric{"pass", r.Pass()})
	}
	var obj bytes.Buffer
	obj.WriteByte('{')
	for i, f := range fields {
		val, err := json.Marshal(f.Value)
		if err != nil {
			return nil, fmt.Errorf("report field %q: %w", f.Name, err)
		}
		key, _ := json.Marshal(f.Name) // a string always marshals
		if i > 0 {
			obj.WriteByte(',')
		}
		obj.Write(key)
		obj.WriteByte(':')
		obj.Write(val)
	}
	obj.WriteByte('}')
	var out bytes.Buffer
	err := json.Indent(&out, obj.Bytes(), "", "  ")
	return out.Bytes(), err
}

// Preset is one named configuration of a scenario: the experiment's
// options plus the bound its Report gates the headline number on.
type Preset[O any] struct {
	Name string
	// Smoke puts the preset in the CI smoke set that `ebbrt run -smoke`
	// and `ebbrt guard` run.
	Smoke bool
	// Bench names the BENCH_*.json file guard writes from the report;
	// presets naming the same file merge into it in registry order.
	Bench string
	Opt   O
	Bound float64
}

// Spec is a scenario: its presets, the run, its text formatter, and
// its report (nil for none).
type Spec[O, R any] struct {
	Doc     string
	Presets []Preset[O]
	Run     func(O) (R, error)
	Format  func(R) string
	Report  func(r R, bound float64) Report
}

// Case is one preset of a registered scenario. Run executes it and
// returns its text and report.
type Case struct {
	Scenario, Doc, Preset string
	Smoke                 bool
	Bench                 string
	Run                   func() (string, Report, error)
}

// Name is "scenario/preset".
func (c Case) Name() string { return c.Scenario + "/" + c.Preset }

var registry []Case

// Register adds a scenario's presets to the registry, at start-up.
func Register[O, R any](name string, s Spec[O, R]) {
	for _, p := range s.Presets {
		registry = append(registry, Case{
			Scenario: name, Doc: s.Doc, Preset: p.Name, Smoke: p.Smoke, Bench: p.Bench,
			Run: func() (string, Report, error) {
				res, err := s.Run(p.Opt)
				if err != nil {
					return "", Report{}, err
				}
				var rep Report
				if s.Report != nil {
					rep = s.Report(res, p.Bound)
				}
				return s.Format(res), rep, nil
			},
		})
	}
}

// Cases lists every registered preset in registration order; a
// scenario's first preset is its default.
func Cases() []Case { return registry }

// Lookup finds a registered preset by "scenario/preset", or a
// scenario's default preset by its bare name.
func Lookup(name string) (Case, bool) {
	for _, c := range registry {
		if c.Name() == name || c.Scenario == name {
			return c, true
		}
	}
	return Case{}, false
}
