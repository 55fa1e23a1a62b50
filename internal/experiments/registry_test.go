package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestReportJSONMatchesMarshalIndent: the ordered report renders every
// value kind the BENCH files carry exactly as encoding/json renders the
// same fields of a struct, so a BENCH file's bytes do not depend on
// which of the two produced it.
func TestReportJSONMatchesMarshalIndent(t *testing.T) {
	want := struct {
		I     int     `json:"i"`
		U     uint64  `json:"u"`
		B     bool    `json:"b"`
		S     string  `json:"s"`
		Zero  float64 `json:"zero"`
		Cap   float64 `json:"capped"`
		Tiny  float64 `json:"tiny"`
		Huge  float64 `json:"huge"`
		Ratio float64 `json:"ratio"`
		Floor float64 `json:"floor"`
		Pass  bool    `json:"pass"`
	}{-3, 1 << 63, true, "events_benchguard.jsonl", 0, 999, 1e-7, 1e21, 0.7878315132605305, 1.3, false}
	rep := Report{
		Metrics: []Metric{
			{"i", want.I}, {"u", want.U}, {"b", want.B}, {"s", want.S},
			{"zero", want.Zero}, {"capped", want.Cap}, {"tiny", want.Tiny},
			{"huge", want.Huge}, {"ratio", want.Ratio},
		},
		Gates: []Gate{
			must("a hard gate stays out of the JSON", true),
			floor("floor", "ratio", want.Ratio, want.Floor),
		},
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, exp) {
		t.Fatalf("report JSON\n%s\nwant\n%s", got, exp)
	}
}

// TestRegistryNamesUnique: every preset name is unique and a scenario's
// presets are contiguous, so Lookup and the first-preset default are
// unambiguous.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for i, c := range Cases() {
		if seen[c.Name()] {
			t.Errorf("preset %s registered twice", c.Name())
		}
		seen[c.Name()] = true
		if i > 0 && Cases()[i-1].Scenario != c.Scenario && seen[c.Scenario] {
			t.Errorf("scenario %s registered twice", c.Scenario)
		}
		seen[c.Scenario] = true
	}
}

// TestSmokePresetsDeterministic runs the lossy and elasticity smoke
// presets twice each: the simulator is bit-deterministic, so the
// printed text and the report JSON must repeat byte for byte.
func TestSmokePresetsDeterministic(t *testing.T) {
	for _, name := range []string{"lossy/smoke", "elasticity/smoke"} {
		c, ok := Lookup(name)
		if !ok {
			t.Fatalf("no registered preset %s", name)
		}
		var texts, reports [2][]byte
		for i := range texts {
			text, rep, err := c.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			data, err := rep.JSON()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			texts[i], reports[i] = []byte(text), data
		}
		if len(reports[0]) <= len("{}") {
			t.Errorf("%s: empty report %s", name, reports[0])
		}
		if !bytes.Equal(texts[0], texts[1]) {
			t.Errorf("%s: text differs between runs:\n%s\n---\n%s", name, texts[0], texts[1])
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Errorf("%s: report differs between runs:\n%s\n---\n%s", name, reports[0], reports[1])
		}
	}
}
