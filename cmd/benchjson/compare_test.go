package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeJSON(t, dir, "old.json", `{
		"BenchmarkStable":    {"ns/op": 1000, "allocs/op": 0},
		"BenchmarkImproved":  {"ns/op": 2000},
		"BenchmarkRegressed": {"ns/op": 1000},
		"BenchmarkGone":      {"ns/op": 500}
	}`)
	newPath := writeJSON(t, dir, "new.json", `{
		"BenchmarkStable":    {"ns/op": 1050, "allocs/op": 0},
		"BenchmarkImproved":  {"ns/op": 1500},
		"BenchmarkRegressed": {"ns/op": 1300},
		"BenchmarkAdded":     {"ns/op": 700}
	}`)

	var out strings.Builder
	regressed, err := compareFiles(oldPath, newPath, 20, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 1 || regressed[0] != "BenchmarkRegressed" {
		t.Errorf("regressed = %v, want [BenchmarkRegressed]", regressed)
	}
	text := out.String()
	for _, want := range []string{"BenchmarkRegressed", "REGRESSED", "+30.0%", "-25.0%", "new", "gone"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
	// A +5% drift must not be flagged at the default 20% threshold...
	if strings.Count(text, "REGRESSED") != 1 {
		t.Errorf("want exactly one REGRESSED mark:\n%s", text)
	}
	// ...but is flagged when the threshold is tightened below it.
	regressed, err = compareFiles(oldPath, newPath, 4, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 2 {
		t.Errorf("at threshold 4%%: regressed = %v, want BenchmarkRegressed and BenchmarkStable", regressed)
	}
}

func TestCompareFilesErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeJSON(t, dir, "good.json", `{"BenchmarkA": {"ns/op": 1}}`)
	bad := writeJSON(t, dir, "bad.json", `{not json`)
	var out strings.Builder
	if _, err := compareFiles(good, filepath.Join(dir, "missing.json"), 20, false, &out); err == nil {
		t.Error("missing file: want error")
	}
	if _, err := compareFiles(good, bad, 20, false, &out); err == nil {
		t.Error("malformed JSON: want error")
	}
}

func TestCompareFilesEnvMismatch(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeJSON(t, dir, "old.json", `{
		"_env":       {"gomaxprocs": 8, "numcpu": 8},
		"BenchmarkA": {"ns/op": 1000}
	}`)
	newPath := writeJSON(t, dir, "new.json", `{
		"_env":       {"gomaxprocs": 1, "numcpu": 1},
		"BenchmarkA": {"ns/op": 5000}
	}`)

	// Different environments: refuse outright (the 5x "regression" is the
	// machine, not the code)...
	var out strings.Builder
	if _, err := compareFiles(oldPath, newPath, 20, false, &out); err == nil {
		t.Fatal("env mismatch: want refusal error")
	}

	// ...unless skipping is requested, which succeeds WITHOUT diffing.
	out.Reset()
	regressed, err := compareFiles(oldPath, newPath, 20, true, &out)
	if err != nil {
		t.Fatalf("skip-env-mismatch: %v", err)
	}
	if len(regressed) != 0 {
		t.Errorf("skipped comparison reported regressions: %v", regressed)
	}
	if !strings.Contains(out.String(), "SKIPPED") {
		t.Errorf("skip output missing SKIPPED marker:\n%s", out.String())
	}

	// Matching environments diff normally, with _env excluded from the
	// delta table.
	samePath := writeJSON(t, dir, "same.json", `{
		"_env":       {"gomaxprocs": 8, "numcpu": 8},
		"BenchmarkA": {"ns/op": 1100}
	}`)
	out.Reset()
	regressed, err = compareFiles(oldPath, samePath, 20, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 0 {
		t.Errorf("regressed = %v, want none at +10%%", regressed)
	}
	if strings.Contains(out.String(), "_env") {
		t.Errorf("_env leaked into the delta table:\n%s", out.String())
	}

	// A baseline from before env stamping (no _env entry) compares against
	// anything — there is nothing to contradict.
	legacy := writeJSON(t, dir, "legacy.json", `{"BenchmarkA": {"ns/op": 1000}}`)
	if _, err := compareFiles(legacy, newPath, 20, false, &out); err != nil {
		t.Errorf("legacy baseline without _env: %v", err)
	}
}

func TestParseBenchLineEnvMetrics(t *testing.T) {
	m, name := parseBenchLine("BenchmarkCampaignStepMetered/shards8-4   500   22703 ns/op   4069 B/op   15 allocs/op")
	if name != "BenchmarkCampaignStepMetered/shards8" {
		t.Fatalf("name = %q", name)
	}
	if m["gomaxprocs"] != 4 {
		t.Errorf("gomaxprocs = %v, want 4 (from the -4 suffix)", m["gomaxprocs"])
	}
	if m["shards"] != 8 {
		t.Errorf("shards = %v, want 8 (from the /shards8 component)", m["shards"])
	}
	if m["ns/op"] != 22703 || m["allocs/op"] != 15 {
		t.Errorf("metrics = %v", m)
	}

	// Unsharded, unsuffixed lines carry neither pseudo-metric.
	m, name = parseBenchLine("BenchmarkWaterFill   100   250 ns/op")
	if name != "BenchmarkWaterFill" {
		t.Fatalf("name = %q", name)
	}
	if _, ok := m["gomaxprocs"]; ok {
		t.Error("unsuffixed line must not carry gomaxprocs")
	}
	if _, ok := m["shards"]; ok {
		t.Error("unsharded line must not carry shards")
	}
}

func TestCompareOverhead(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeJSON(t, dir, "old.json", `{
		"BenchmarkBase":    {"ns/op": 1000},
		"BenchmarkDerived": {"ns/op": 1050}
	}`)
	// Overhead grew from 5% to 30%: +25 pp.
	newPath := writeJSON(t, dir, "new.json", `{
		"BenchmarkBase":    {"ns/op": 1000},
		"BenchmarkDerived": {"ns/op": 1300}
	}`)

	var out strings.Builder
	regressed, err := compareOverhead(oldPath, newPath, "BenchmarkBase,BenchmarkDerived", 20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 1 {
		t.Errorf("regressed = %v, want the derived benchmark flagged at +25 pp", regressed)
	}
	for _, want := range []string{"+5.0%", "+30.0%", "+25.0 pp", "REGRESSED"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("overhead output missing %q:\n%s", want, out.String())
		}
	}

	// The same growth passes a looser threshold.
	out.Reset()
	regressed, err = compareOverhead(oldPath, newPath, "BenchmarkBase,BenchmarkDerived", 30, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressed) != 0 {
		t.Errorf("regressed = %v at 30 pp threshold, want none", regressed)
	}

	// A baseline without the pair is reported, not failed.
	legacy := writeJSON(t, dir, "legacy.json", `{"BenchmarkBase": {"ns/op": 1000}}`)
	out.Reset()
	regressed, err = compareOverhead(legacy, newPath, "BenchmarkBase,BenchmarkDerived", 20, &out)
	if err != nil || len(regressed) != 0 {
		t.Errorf("missing baseline pair: regressed=%v err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), "no baseline") {
		t.Errorf("output missing the no-baseline note:\n%s", out.String())
	}

	// A malformed spec is an error.
	if _, err := compareOverhead(oldPath, newPath, "justone", 20, &out); err == nil {
		t.Error("malformed -overhead spec: want error")
	}
}

// TestCompareAllocs: allocs/op fails past max(2, 1%) of the baseline,
// whatever the ns/op delta, and also when the environments differ.
func TestCompareAllocs(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeJSON(t, dir, "old.json", `{
		"_env":            {"gomaxprocs": 2, "numcpu": 2},
		"BenchmarkZero":   {"ns/op": 100, "allocs/op": 0},
		"BenchmarkFew":    {"ns/op": 100, "allocs/op": 15},
		"BenchmarkMany":   {"ns/op": 100, "allocs/op": 40345},
		"BenchmarkFewer":  {"ns/op": 100, "allocs/op": 41},
		"BenchmarkNoMem":  {"ns/op": 100}
	}`)
	newPath := writeJSON(t, dir, "new.json", `{
		"_env":            {"gomaxprocs": 2, "numcpu": 2},
		"BenchmarkZero":   {"ns/op": 100, "allocs/op": 2},
		"BenchmarkFew":    {"ns/op": 100, "allocs/op": 18},
		"BenchmarkMany":   {"ns/op": 100, "allocs/op": 40748},
		"BenchmarkFewer":  {"ns/op": 100, "allocs/op": 30},
		"BenchmarkNoMem":  {"ns/op": 100, "allocs/op": 9}
	}`)
	var out strings.Builder
	regressed, err := compareFiles(oldPath, newPath, 20, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	// Zero +2 and Many +403 (1% is 403.45) are inside the allowance; Few +3
	// is not; a drop and a baseline without allocs/op never fail.
	if want := []string{"BenchmarkFew (allocs/op)"}; !reflect.DeepEqual(regressed, want) {
		t.Errorf("regressed = %v, want %v\n%s", regressed, want, out.String())
	}
	if !strings.Contains(out.String(), "allocs/op BenchmarkFew: 15 -> 18  REGRESSED") {
		t.Errorf("output missing the allocs/op regression line:\n%s", out.String())
	}

	// One more alloc on Many is past 1%; the gate still runs when the
	// ns/op table is skipped for an environment mismatch.
	otherEnv := writeJSON(t, dir, "other.json", `{
		"_env":            {"gomaxprocs": 8, "numcpu": 8},
		"BenchmarkMany":   {"ns/op": 9000, "allocs/op": 40749}
	}`)
	out.Reset()
	regressed, err = compareFiles(oldPath, otherEnv, 20, true, &out)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"BenchmarkMany (allocs/op)"}; !reflect.DeepEqual(regressed, want) {
		t.Errorf("env mismatch: regressed = %v, want %v\n%s", regressed, want, out.String())
	}
	if !strings.Contains(out.String(), "SKIPPED") {
		t.Errorf("env mismatch output missing SKIPPED:\n%s", out.String())
	}
}

// TestMedianMetrics: repeated -count lines fold to the per-metric median,
// so one slow repeat cannot move the recorded number.
func TestMedianMetrics(t *testing.T) {
	var runs []map[string]float64
	for _, line := range []string{
		"BenchmarkMeter-2   1000   900 ns/op   0 B/op   0 allocs/op",
		"BenchmarkMeter-2   1000   5000 ns/op   0 B/op   0 allocs/op",
		"BenchmarkMeter-2   1000   1000 ns/op   0 B/op   2 allocs/op",
	} {
		m, name := parseBenchLine(line)
		if name != "BenchmarkMeter" {
			t.Fatalf("parsed name %q", name)
		}
		runs = append(runs, m)
	}
	got := medianMetrics(runs)
	if got["ns/op"] != 1000 || got["allocs/op"] != 0 || got["gomaxprocs"] != 2 {
		t.Errorf("median of three = %v, want ns/op 1000, allocs/op 0, gomaxprocs 2", got)
	}
	if got := medianMetrics(runs[:2]); got["ns/op"] != 2950 {
		t.Errorf("median of two ns/op = %v, want the middle pair's mean 2950", got["ns/op"])
	}
}
