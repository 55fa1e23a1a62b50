// Command ebbrt runs the scenario registry of internal/experiments:
// `list` prints the scenarios and their presets; `run` runs a
// scenario's default preset, a named "scenario/preset", or with -smoke
// the CI smoke presets of a scenario or of "all", printing the text or
// with -json the report; `guard` runs every smoke preset and writes the
// BENCH_*.json reports and the audited event log into the working
// directory. It exits 1 when a gate fails, 2 on a usage or run error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ebbrt/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:])) }

const usage = "usage: ebbrt list | ebbrt run <scenario>[/<preset>]|all [-smoke] [-json] | ebbrt guard"

func run(args []string) int {
	switch {
	case len(args) == 1 && args[0] == "list":
		list()
		return 0
	case len(args) == 1 && args[0] == "guard":
		return guard()
	case len(args) > 0 && args[0] == "run":
		return runCmd(args[1:])
	}
	return fail(usage)
}

func fail(msg string) int {
	fmt.Fprintln(os.Stderr, msg)
	return 2
}

func list() {
	for i, c := range experiments.Cases() {
		if i == 0 || experiments.Cases()[i-1].Scenario != c.Scenario {
			fmt.Printf("%-18s %s\n", c.Scenario, c.Doc)
		}
		line := "  /" + c.Preset
		if c.Smoke {
			line += "  [smoke]"
		}
		if c.Bench != "" {
			line += "  -> " + c.Bench
		}
		fmt.Println(line)
	}
}

// runCmd parses `run`'s arguments, flags before or after the name, and
// runs the presets they select.
func runCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	smoke := fs.Bool("smoke", false, "run the CI smoke presets")
	asJSON := fs.Bool("json", false, "print each report as JSON in place of the text")
	if fs.Parse(args) != nil || fs.NArg() == 0 {
		return fail(usage)
	}
	name := fs.Arg(0)
	if fs.Parse(fs.Args()[1:]) != nil || fs.NArg() != 0 {
		return fail(usage)
	}
	cases, err := selectCases(name, *smoke)
	if err != nil {
		return fail("ebbrt: " + err.Error())
	}
	code := 0
	for _, c := range cases {
		text, rep, err := c.Run()
		if err != nil {
			return fail(fmt.Sprintf("ebbrt: %s: %v", c.Name(), err))
		}
		if *asJSON {
			data, err := rep.JSON()
			if err != nil {
				return fail(fmt.Sprintf("ebbrt: %s: %v", c.Name(), err))
			}
			fmt.Printf("%s\n", data)
		} else {
			fmt.Printf("== %s\n%s\n", c.Name(), text)
		}
		if !gates(c, rep) {
			code = 1
		}
	}
	return code
}

// selectCases resolves a `run` name: a preset ("scenario/preset"), a
// scenario's default preset, or with -smoke the smoke presets of a
// scenario or of "all".
func selectCases(name string, smoke bool) ([]experiments.Case, error) {
	if !smoke && name != "all" {
		c, ok := experiments.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("no scenario or preset %q (see ebbrt list)", name)
		}
		return []experiments.Case{c}, nil
	}
	var out []experiments.Case
	for i, c := range experiments.Cases() {
		first := i == 0 || experiments.Cases()[i-1].Scenario != c.Scenario
		if (name == "all" || c.Scenario == name) && (smoke && c.Smoke || !smoke && first) {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no smoke preset in %q (see ebbrt list)", name)
	}
	return out, nil
}

// gates prints each failing gate and reports whether all passed.
func gates(c experiments.Case, rep experiments.Report) bool {
	for _, g := range rep.Gates {
		if !g.Pass() {
			fmt.Fprintf(os.Stderr, "%s FAIL: %s\n", c.Name(), g)
		}
	}
	return rep.Pass()
}

// smokeFile is where guard writes every smoke preset's text block, the
// committed transcript that pins each preset's printed numbers.
const smokeFile = "SMOKE.txt"

// guard runs every smoke preset, gating each, and writes the BENCH
// files and smokeFile; presets naming the same BENCH file merge into it
// in registry order.
func guard() int {
	var files []string
	merged := map[string]*experiments.Report{}
	var smoke strings.Builder
	code := 0
	for _, c := range experiments.Cases() {
		if !c.Smoke {
			continue
		}
		text, rep, err := c.Run()
		if err != nil {
			return fail(fmt.Sprintf("guard: %s: %v", c.Name(), err))
		}
		block := fmt.Sprintf("== %s\n%s\n", c.Name(), text)
		fmt.Print(block)
		smoke.WriteString(block)
		if !gates(c, rep) {
			code = 1
		}
		if c.Bench == "" {
			continue
		}
		if merged[c.Bench] == nil {
			merged[c.Bench] = &experiments.Report{}
			files = append(files, c.Bench)
		}
		m := merged[c.Bench]
		m.Metrics = append(m.Metrics, rep.Metrics...)
		m.Gates = append(m.Gates, rep.Gates...)
	}
	for _, file := range files {
		data, err := merged[file].JSON()
		if err == nil {
			err = os.WriteFile(file, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(fmt.Sprintf("guard: %s: %v", file, err))
		}
		fmt.Printf("guard: wrote %s\n%s\n", file, data)
	}
	if err := os.WriteFile(smokeFile, []byte(smoke.String()), 0o644); err != nil {
		return fail(fmt.Sprintf("guard: %s: %v", smokeFile, err))
	}
	fmt.Printf("guard: wrote %s\n", smokeFile)
	if code != 0 {
		fmt.Fprintln(os.Stderr, "guard FAIL")
		return code
	}
	fmt.Println("guard PASS")
	return 0
}
