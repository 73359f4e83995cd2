package monitor

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"virtover/internal/sampling"
	"virtover/internal/xen"
)

// equivEngine builds a seeded 3-PM cluster with uneven guest counts and
// time-varying workloads, plus process noise, so the streams exercise
// every branch of the pipeline (multi-guest groups, single-guest, empty).
func equivEngine(seed int64) (*xen.Engine, []*xen.PM) {
	cl := xen.NewCluster()
	pms := []*xen.PM{cl.AddPM("pmA"), cl.AddPM("pmB"), cl.AddPM("pmC")}
	load := func(base, amp, phase float64) xen.Source {
		return xen.SourceFunc(func(t float64) xen.Demand {
			return xen.Demand{
				CPU:      base + amp*math.Sin(t/7+phase),
				MemMB:    100 + 10*math.Cos(t/11+phase),
				IOBlocks: 20 + 5*math.Sin(t/5+phase),
				Flows:    []xen.Flow{{Kbps: 300 + 100*math.Cos(t/13+phase)}},
			}
		})
	}
	for i := 0; i < 3; i++ { // pmA: three guests
		cl.AddVM(pms[0], fmt.Sprintf("a%d", i), 512).SetSource(load(30, 10, float64(i)))
	}
	cl.AddVM(pms[1], "b0", 512).SetSource(load(55, 20, 4)) // pmB: one guest
	// pmC stays empty: its groups are just Dom-0 / hypervisor / host.
	calib := xen.DefaultCalibration()
	calib.ProcessNoiseRel = 0.01
	return xen.NewEngine(cl, calib, seed), pms
}

// irregularChains are the measurement-chain shapes pinned by
// testdata/irregular_chains.csv. Two of them hand the meter (or the
// terminal) segments that are not runs of complete PM groups:
// decimate3-filterPM-meter drops pmB's groups behind a decimator, and
// filter-host-only keeps only host rows, splitting every PM group.
var irregularChains = []struct {
	name  string
	build func(seed int64, terminal sampling.Sink) sampling.Sink
}{
	{"meter", func(seed int64, next sampling.Sink) sampling.Sink {
		return NewMeter(DefaultNoise(), seed, next)
	}},
	{"decimate2-meter", func(seed int64, next sampling.Sink) sampling.Sink {
		return sampling.Decimate(2, NewMeter(DefaultNoise(), seed, next))
	}},
	{"decimate3-filterPM-meter", func(seed int64, next sampling.Sink) sampling.Sink {
		return sampling.Decimate(3, &sampling.Filter{
			Keep: func(s sampling.Sample) bool { return s.PMID != 1 },
			Next: NewMeter(DefaultNoise(), seed, next),
		})
	}},
	{"filter-host-only", func(seed int64, next sampling.Sink) sampling.Sink {
		return &sampling.Filter{
			Keep: func(s sampling.Sample) bool { return s.Kind == sampling.KindHost },
			Next: next,
		}
	}},
	{"meter-fanout", func(seed int64, next sampling.Sink) sampling.Sink {
		return NewMeter(DefaultNoise(), seed, sampling.Fanout{next, sampling.NewSerial(new(sampling.Counter).Count)})
	}},
}

// appendIrregularRows renders one chain's stream with every field exact
// (shortest round-trip floats), one line per sample.
func appendIrregularRows(b []byte, chain string, samples []sampling.Sample) []byte {
	for _, s := range samples {
		b = append(b, chain...)
		b = append(b, ',')
		b = strconv.AppendFloat(b, s.Time, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.PMID), 10)
		b = append(b, ',')
		b = append(b, s.PM...)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.VMID), 10)
		b = append(b, ',')
		b = append(b, s.Domain...)
		b = append(b, ',')
		b = append(b, s.Kind.String()...)
		for _, x := range [4]float64{s.Util.CPU, s.Util.Mem, s.Util.IO, s.Util.BW} {
			b = append(b, ',')
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}

// irregularRun drives one pinned chain over the equivEngine campaign at
// the given shard count and renders its terminal stream.
func irregularRun(t *testing.T, chain int, shards int) []byte {
	t.Helper()
	const seed = 97
	tc := irregularChains[chain]
	e, _ := equivEngine(seed)
	defer e.Close()
	e.SetShards(shards)
	rec := newRecordSink()
	e.AttachSink(tc.build(seed, rec))
	e.Advance(40)
	if len(rec.samples) == 0 {
		t.Fatalf("%s: campaign produced no samples", tc.name)
	}
	return appendIrregularRows(nil, tc.name, rec.samples)
}

// TestIrregularChainsGolden pins the measured streams of five chain shapes
// — including the two whose segments split PM groups — byte for byte to a
// fixture, at shards {1,2,8} (make meter-determinism adds -cpu 1,2,8). The
// fixture was recorded with the batch and scalar delivery paths the step
// contract replaced, so it is an independent reference. Record with
// -update.
func TestIrregularChainsGolden(t *testing.T) {
	const header = "chain,time,pmid,pm,vmid,domain,kind,cpu,mem,io,bw\n"
	path := filepath.Join("testdata", "irregular_chains.csv")
	if *updateGolden {
		all := []byte(header)
		for i := range irregularChains {
			all = append(all, irregularRun(t, i, 1)...)
		}
		if err := os.WriteFile(path, all, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run `go test ./internal/monitor -run IrregularChainsGolden -update`): %v", err)
	}
	rest, ok := bytes.CutPrefix(fixture, []byte(header))
	for i, tc := range irregularChains {
		// The fixture holds the chains in order, each a run of lines
		// prefixed by its name.
		var want []byte
		for len(rest) > 0 && bytes.HasPrefix(rest, []byte(tc.name+",")) {
			n := bytes.IndexByte(rest, '\n') + 1
			want, rest = append(want, rest[:n]...), rest[n:]
		}
		t.Run(tc.name, func(t *testing.T) {
			if !ok || len(want) == 0 {
				t.Fatalf("%s holds no rows for this chain", path)
			}
			for _, shards := range []int{1, 2, 8} {
				if got := irregularRun(t, i, shards); !bytes.Equal(got, want) {
					t.Fatalf("shards=%d: stream differs from %s (%d vs %d bytes)",
						shards, path, len(got), len(want))
				}
			}
		})
	}
	if len(rest) > 0 {
		t.Errorf("%s has %d bytes of rows for no pinned chain", path, len(rest))
	}
}

// TestScriptRunTwiceSameDecimation pins the Decimator.Reset contract at the
// Script level: two consecutive Run calls on one engine must both sample on
// their own interval grid, yielding equally sized series — the second run
// must not inherit step parity from the first.
func TestScriptRunTwiceSameDecimation(t *testing.T) {
	e, pms := equivEngine(5)
	sc := Script{IntervalSteps: 3, Samples: 7, Noise: DefaultNoise(), Seed: 13}
	for i := 0; i < 2; i++ {
		series, err := sc.Run(e, pms[:1])
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != sc.Samples {
			t.Fatalf("run %d produced %d samples, want %d", i+1, len(series), sc.Samples)
		}
		// The interval grid restarts relative to the run's first step: the
		// gap between consecutive samples is always IntervalSteps seconds.
		for j := 1; j < len(series); j++ {
			if dt := series[j][0].Time - series[j-1][0].Time; dt != float64(sc.IntervalSteps) {
				t.Fatalf("run %d: sample gap %v at %d, want %d", i+1, dt, j, sc.IntervalSteps)
			}
		}
	}
}
