package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets runWorkload spawn the test binary as its child processes:
// spawn starts every child with -child, and such a process runs the product
// as the benchmark binary would.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smoke runs one workload end to end at the smoke size for a one-second
// run: every product in its own child process, results merged, and every
// metric of the run's table required. It checks the run was correct and
// returns it.
func smoke(t *testing.T, workload string, traced bool) *output {
	t.Helper()
	var stderr bytes.Buffer
	dir := t.TempDir()
	out, err := runWorkload(context.Background(),
		runConfig{workload: workload, seed: 3, seconds: 1, traced: traced, smoke: true, spansDir: dir}, &stderr)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%s: correct %v, attempted %d, failed %d\n%s", workload, out.Correct, out.Attempted, out.Failed, stderr.String())
	}
	table := endToEnd
	if traced {
		table = perLayer
		for _, product := range products {
			if _, err := os.Stat(filepath.Join(dir, workload+"-seed3-"+product+".jsonl")); err != nil {
				t.Errorf("%s spans: %v", product, err)
			}
		}
	}
	if len(out.Metrics) != len(table) {
		t.Errorf("%s: %d metrics, want %d", workload, len(out.Metrics), len(table))
	}
	return out
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range products {
		t.Run(w, func(t *testing.T) {
			out := smoke(t, w, false)
			for _, m := range []string{"setup_s", "report_s", "refit_sweep_s"} {
				if v := out.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive time", m, v)
				}
			}
		})
	}
}

// Every product runs traced in a traced run whatever the workload, so one
// workload covers the traced paths.
func TestSmokeTraced(t *testing.T) {
	out := smoke(t, "report", true)
	if v := out.Metrics["xen.engine_steps"].Value; !(v > 0) {
		t.Errorf("xen.engine_steps = %v, want steps", v)
	}
}
