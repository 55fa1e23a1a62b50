package main

import (
	"path/filepath"
	"slices"
	"testing"

	"ebbrt/internal/experiments"
)

// TestRunRejectsBadInput: an unknown scenario, command, flag or
// malformed flag value exits non-zero before anything runs.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"run"},
		{"run", "no-such-scenario"},
		{"run", "lossy/no-such-preset"},
		{"run", "-bogus", "lossy"},
		{"run", "lossy", "-bogus"},
		{"run", "-smoke=maybe", "lossy"},
		{"run", "lossy", "extra"},
		{"run", "netpipe", "-smoke"},
		{"list", "extra"},
		{"guard", "-out", "x.json"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestGuardWritesCommittedBenchFiles: the BENCH files the registry's
// presets name are exactly the ones committed at the repository root,
// so no committed file goes stale without a preset regenerating it.
func TestGuardWritesCommittedBenchFiles(t *testing.T) {
	var written []string
	for _, c := range experiments.Cases() {
		if c.Bench == "" {
			continue
		}
		if !c.Smoke {
			t.Errorf("%s names %s but guard only runs smoke presets", c.Name(), c.Bench)
		}
		if !slices.Contains(written, c.Bench) {
			written = append(written, c.Bench)
		}
	}
	committed, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range committed {
		committed[i] = filepath.Base(path)
	}
	slices.Sort(written)
	slices.Sort(committed)
	if !slices.Equal(written, committed) {
		t.Fatalf("guard writes %v, repository commits %v", written, committed)
	}
}
