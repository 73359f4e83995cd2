// Command benchjson converts `go test -bench` output into a JSON
// perf-trajectory file. It reads benchmark output on stdin, echoes it
// unchanged to stdout (so make bench stays readable), and writes one JSON
// object mapping each benchmark name to its reported metrics — ns/op,
// B/op, allocs/op and any custom b.ReportMetric units — plus the
// parallelism environment: each entry carries the line's GOMAXPROCS
// suffix ("gomaxprocs") and, for sharded sub-benchmarks, the shard count
// ("shards"), and a top-level "_env" pseudo-entry records the recording
// machine's GOMAXPROCS and CPU count.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -out BENCH_stats.json
//	benchjson -compare old.json new.json    # delta table; exit 1 on regression
//
// With -count > 1 each metric of a benchmark is the median over its
// repeated lines, so repeats steady a number instead of replacing it. The
// file
// gives successive PRs a recorded baseline to diff against instead of
// re-running historical commits; -compare does that diff, printing the
// per-benchmark ns/op delta and exiting non-zero when any benchmark
// regressed past -threshold percent. Files recorded under different
// parallelism environments (per their "_env" entries) refuse to diff —
// cross-machine ns/op deltas are noise, not regressions; pass
// -skip-env-mismatch to turn that refusal into a no-op success (for CI
// fleets with heterogeneous runners).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"virtover/internal/obs/cli"
)

var app = cli.New("benchjson")

// envEntry is the name of the pseudo-benchmark entry recording the
// environment. The leading underscore sorts it first and can never clash
// with a real benchmark (those start with "Benchmark").
const envEntry = "_env"

func main() {
	out := flag.String("out", "BENCH_stats.json", "output JSON path")
	compare := flag.Bool("compare", false, "compare two benchjson files given as positional args (old.json new.json)")
	threshold := flag.Float64("threshold", 20, "with -compare, the ns/op regression percentage that fails the run")
	skipEnvMismatch := flag.Bool("skip-env-mismatch", false, "with -compare, succeed without diffing when the files' _env entries differ instead of failing")
	overhead := flag.String("overhead", "", "with -compare, a \"base,derived\" benchmark pair; fails when derived's within-file ns/op overhead over base grows by more than -threshold percentage points")
	app.Parse()

	if *compare {
		if flag.NArg() != 2 {
			app.Fatal("usage: benchjson -compare old.json new.json")
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), *threshold, *skipEnvMismatch, os.Stdout)
		app.Check(err)
		if *overhead != "" {
			// Within-file ratio: meaningful even when the delta table was
			// skipped for an environment mismatch.
			more, err := compareOverhead(flag.Arg(0), flag.Arg(1), *overhead, *threshold, os.Stdout)
			app.Check(err)
			regressed = append(regressed, more...)
		}
		if len(regressed) > 0 {
			app.Fatalf("%d benchmark(s) regressed more than %.0f%% in ns/op: %s",
				len(regressed), *threshold, strings.Join(regressed, ", "))
		}
		return
	}

	runs := map[string][]map[string]float64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if m, name := parseBenchLine(line); m != nil {
			runs[name] = append(runs[name], m)
		}
	}
	app.Check(sc.Err())
	results := make(map[string]map[string]float64, len(runs)+1)
	for name, r := range runs {
		results[name] = medianMetrics(r)
	}
	if len(results) == 0 {
		app.Fatal("no benchmark lines found on stdin")
	}
	results[envEntry] = map[string]float64{
		"gomaxprocs": float64(runtime.GOMAXPROCS(0)),
		"numcpu":     float64(runtime.NumCPU()),
	}
	f, err := os.Create(*out)
	app.Check(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	app.Check(enc.Encode(results))
	app.Check(f.Close())
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	app.Log.Info("wrote benchmarks", "count", len(results), "out", *out, "first", names[0])
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkLMSFitParallel/w4-8   500   2501234 ns/op   32984 B/op   15 allocs/op
//
// returning the metric map and the benchmark name with the trailing
// -GOMAXPROCS suffix stripped, or (nil, "") for non-benchmark lines. The
// stripped GOMAXPROCS is kept as the entry's "gomaxprocs" metric, and a
// "/shardsN" name component (the sharded benchmarks' convention) as its
// "shards" metric, so every recorded number names the parallelism it was
// measured under.
func parseBenchLine(line string) (map[string]float64, string) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return nil, ""
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return nil, "" // second column must be the iteration count
	}
	name := fields[0]
	gomaxprocs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			gomaxprocs = n
			name = name[:i]
		}
	}
	m := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, ""
		}
		m[fields[i+1]] = v
	}
	if len(m) == 0 {
		return nil, ""
	}
	if gomaxprocs > 0 {
		m["gomaxprocs"] = float64(gomaxprocs)
	}
	for _, part := range strings.Split(name, "/") {
		if rest, ok := strings.CutPrefix(part, "shards"); ok {
			if n, err := strconv.Atoi(rest); err == nil {
				m["shards"] = float64(n)
			}
		}
	}
	return m, name
}

// medianMetrics folds the repeated result lines of one benchmark (go test
// -count N) into one metric map: each metric is the median of the values
// reported for it, the mean of the middle two for an even count.
func medianMetrics(runs []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range runs {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		slices.Sort(v)
		n := len(v)
		out[k] = (v[(n-1)/2] + v[n/2]) / 2
	}
	return out
}
