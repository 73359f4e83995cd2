package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchFile is the JSON shape benchjson writes: benchmark name -> metric
// unit -> value.
type benchFile map[string]map[string]float64

func readBenchFile(path string) (benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// envMismatch compares the two files' "_env" pseudo-entries and returns a
// description of the first differing key, or "" when the environments
// match. A file without an _env entry (a pre-stamping baseline) matches
// anything — there is nothing to contradict.
func envMismatch(oldF, newF benchFile) string {
	oldEnv, newEnv := oldF[envEntry], newF[envEntry]
	if oldEnv == nil || newEnv == nil {
		return ""
	}
	keys := map[string]bool{}
	for k := range oldEnv {
		keys[k] = true
	}
	for k := range newEnv {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if oldEnv[k] != newEnv[k] {
			return fmt.Sprintf("%s %g vs %g", k, oldEnv[k], newEnv[k])
		}
	}
	return ""
}

// allocSlack is the allocs/op rise over the baseline that still passes:
// max(allocSlackMin, allocSlackFrac of the baseline). Allocation counts do
// not depend on host speed, but a benchmark that runs few iterations
// amortizes its set-up differently from run to run (BenchmarkServeRefit:
// 40,343 and 40,346 against a recorded 40,345).
const (
	allocSlackMin  = 2
	allocSlackFrac = 0.01
)

// compareAllocs gates allocs/op, which is host-free: it returns the
// benchmarks whose allocs/op rose past the allowance, and writes a line to
// w for every benchmark whose count changed.
func compareAllocs(oldF, newF benchFile, w io.Writer) []string {
	names := make([]string, 0, len(oldF))
	for n := range oldF {
		names = append(names, n)
	}
	sort.Strings(names)
	var regressed []string
	for _, n := range names {
		o, oldOK := oldF[n]["allocs/op"]
		nw, newOK := newF[n]["allocs/op"]
		if !oldOK || !newOK || nw == o {
			continue
		}
		mark := ""
		if nw-o > math.Max(allocSlackMin, allocSlackFrac*o) {
			mark = "  REGRESSED"
			regressed = append(regressed, n+" (allocs/op)")
		}
		fmt.Fprintf(w, "allocs/op %s: %g -> %g%s\n", n, o, nw, mark)
	}
	return regressed
}

// compareFiles diffs two benchjson files and writes a per-benchmark ns/op
// delta table to w. It returns the names of benchmarks whose ns/op
// regressed by more than thresholdPct percent, and of those whose
// allocs/op rose past the fixed allowance (compareAllocs). Benchmarks
// present in only one file are listed but never count as regressions (the
// suite grew or shrank; neither is a perf fault). Files recorded under
// different parallelism environments (per their _env entries) are refused
// — the ns/op delta would measure the machines, not the code — unless
// skipEnvMismatch is set, which reports the skip on w and gates allocs/op
// alone.
func compareFiles(oldPath, newPath string, thresholdPct float64, skipEnvMismatch bool, w io.Writer) ([]string, error) {
	oldF, err := readBenchFile(oldPath)
	if err != nil {
		return nil, err
	}
	newF, err := readBenchFile(newPath)
	if err != nil {
		return nil, err
	}
	if diff := envMismatch(oldF, newF); diff != "" {
		if skipEnvMismatch {
			fmt.Fprintf(w, "SKIPPED: environments differ (%s); no ns/op comparison performed\n", diff)
			return compareAllocs(oldF, newF, w), nil
		}
		return nil, fmt.Errorf("refusing to compare: %s and %s were recorded under different environments (%s); re-record the baseline on this machine or pass -skip-env-mismatch",
			oldPath, newPath, diff)
	}
	names := map[string]bool{}
	for n := range oldF {
		names[n] = true
	}
	for n := range newF {
		names[n] = true
	}
	delete(names, envEntry) // metadata, not a benchmark

	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var regressed []string
	fmt.Fprintf(w, "%-44s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, n := range sorted {
		o, oldOK := oldF[n]["ns/op"]
		nw, newOK := newF[n]["ns/op"]
		switch {
		case !oldOK:
			fmt.Fprintf(w, "%-44s %14s %14.1f %9s\n", n, "-", nw, "new")
		case !newOK:
			fmt.Fprintf(w, "%-44s %14.1f %14s %9s\n", n, o, "-", "gone")
		default:
			delta := math.Inf(1)
			if o > 0 {
				delta = (nw - o) / o * 100
			}
			mark := ""
			if delta > thresholdPct {
				mark = "  REGRESSED"
				regressed = append(regressed, n)
			}
			fmt.Fprintf(w, "%-44s %14.1f %14.1f %+8.1f%%%s\n", n, o, nw, delta, mark)
		}
	}
	return append(regressed, compareAllocs(oldF, newF, w)...), nil
}

// overheadPct returns the derived benchmark's ns/op overhead over base
// within one file, in percent.
func overheadPct(f benchFile, base, derived string) (float64, bool) {
	b, okB := f[base]["ns/op"]
	d, okD := f[derived]["ns/op"]
	if !okB || !okD || b <= 0 {
		return 0, false
	}
	return (d - b) / b * 100, true
}

// compareOverhead checks a derived/base benchmark pair (e.g. the journaled
// engine step vs the observed one): each file's overhead is the ns/op gap
// between the two benchmarks *within that file*, so the check is a ratio of
// same-machine numbers and stays meaningful even across environments the
// delta table refuses to diff. It reports a regression when the overhead
// grew by more than thresholdPct percentage points between the files.
// Pairs missing from either file are reported and skipped — a baseline
// recorded before the derived benchmark existed is not a fault.
func compareOverhead(oldPath, newPath, spec string, thresholdPct float64, w io.Writer) ([]string, error) {
	base, derived, ok := strings.Cut(spec, ",")
	if !ok || base == "" || derived == "" {
		return nil, fmt.Errorf("-overhead wants \"base,derived\" benchmark names, got %q", spec)
	}
	oldF, err := readBenchFile(oldPath)
	if err != nil {
		return nil, err
	}
	newF, err := readBenchFile(newPath)
	if err != nil {
		return nil, err
	}
	oldPct, oldOK := overheadPct(oldF, base, derived)
	newPct, newOK := overheadPct(newF, base, derived)
	switch {
	case !newOK:
		fmt.Fprintf(w, "overhead %s vs %s: not measured in %s; skipped\n", derived, base, newPath)
		return nil, nil
	case !oldOK:
		fmt.Fprintf(w, "overhead %s vs %s: %+.1f%% (no baseline in %s)\n", derived, base, newPct, oldPath)
		return nil, nil
	}
	mark := ""
	var regressed []string
	if newPct-oldPct > thresholdPct {
		mark = "  REGRESSED"
		regressed = append(regressed, derived+" (overhead)")
	}
	fmt.Fprintf(w, "overhead %s vs %s: old %+.1f%%  new %+.1f%%  (%+.1f pp)%s\n",
		derived, base, oldPct, newPct, newPct-oldPct, mark)
	return regressed, nil
}
