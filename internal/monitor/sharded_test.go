package monitor

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"virtover/internal/obs"
	"virtover/internal/sampling"
	"virtover/internal/units"
	"virtover/internal/xen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden metered-campaign fixtures")

// shardedCampaignCluster builds a 9-PM fleet with uneven guest counts
// (including an idle PM and a single-guest PM) and time-varying noisy
// workloads — enough shape that every shard boundary cuts between PMs with
// different group sizes.
func shardedCampaignCluster() (*xen.Cluster, []*xen.PM, xen.Calibration) {
	cl := xen.NewCluster()
	var pms []*xen.PM
	load := func(base, amp, phase float64) xen.Source {
		return xen.SourceFunc(func(t float64) xen.Demand {
			return xen.Demand{
				CPU:      base + amp*math.Sin(t/7+phase),
				MemMB:    120 + 15*math.Cos(t/11+phase),
				IOBlocks: 25 + 8*math.Sin(t/5+phase),
				Flows:    []xen.Flow{{Kbps: 400 + 150*math.Cos(t/13+phase)}},
			}
		})
	}
	for p := 0; p < 9; p++ {
		pm := cl.AddPM(fmt.Sprintf("pm%02d", p))
		pms = append(pms, pm)
		guests := p % 4 // 0..3 guests; pm00/pm04/pm08 idle
		for g := 0; g < guests; g++ {
			vm := cl.AddVM(pm, fmt.Sprintf("vm%02d-%d", p, g), 512)
			vm.SetSource(load(25+5*float64(g), 12, float64(p*3+g)))
		}
	}
	calib := xen.DefaultCalibration()
	calib.ProcessNoiseRel = 0.01
	return cl, pms, calib
}

// meteredRun drives the full measurement chain — engine → Decimate →
// [Filter] → Meter → Fanout{Collector, StreamAggregator, StatSink,
// CDFSink, serial recorder} — at the given engine shard count and returns
// every terminal's observable state.
type meteredRunResult struct {
	series   [][]Measurement
	aggTable string
	statSum  sampling.Summary
	cdf      []float64
	recorded []sampling.Sample
}

// recordSink is a strictly serial consumer standing in for the CSV trace
// writer: through the serial adapter it copies every sample it is fed, in
// emission order.
type recordSink struct {
	*sampling.Serial
	samples []sampling.Sample
}

func newRecordSink() *recordSink {
	r := &recordSink{}
	r.Serial = sampling.NewSerial(func(b []sampling.Sample) { r.samples = append(r.samples, b...) })
	return r
}

func meteredRun(t *testing.T, shards int, monitorSubset bool, reg *obs.Registry) meteredRunResult {
	return meteredRunTelemetry(t, shards, monitorSubset, reg, nil, nil)
}

// meteredRunTelemetry is meteredRun with a run journal and shard-phase
// profiler attached to the engine (either may be nil). The telemetry
// layer's hard invariant — timing never perturbs simulation output — is
// checked by comparing results against the untelemetered run.
func meteredRunTelemetry(t *testing.T, shards int, monitorSubset bool, reg *obs.Registry, j *obs.Journal, p *obs.ShardProfiler) meteredRunResult {
	t.Helper()
	cl, pms, calib := shardedCampaignCluster()
	e := xen.NewEngineWithOptions(cl, calib, 11, xen.EngineOptions{Shards: shards})
	defer e.Close()
	e.SetJournal(j)
	e.SetProfiler(p)

	col := NewCollector()
	agg := NewStreamAggregator()
	stat := sampling.NewStatSink(sampling.SelectKind(sampling.KindHost, units.CPU))
	cdf := sampling.NewCDFSink(sampling.SelectKind(sampling.KindDom0, units.CPU))
	rec := newRecordSink()
	fan := sampling.Fanout{col, agg, stat, cdf, rec}

	sc := Script{IntervalSteps: 2, Samples: 15, Noise: DefaultNoise(), Seed: 23, Obs: reg}
	monitored := pms
	if monitorSubset {
		monitored = []*xen.PM{pms[1], pms[3], pms[6], pms[7]}
	}
	detach, err := sc.Attach(e, monitored, fan)
	if err != nil {
		t.Fatal(err)
	}
	e.Advance(sc.Samples * sc.IntervalSteps)
	detach()

	return meteredRunResult{
		series:   col.Series(),
		aggTable: agg.Render(),
		statSum:  stat.Summary(),
		cdf:      append([]float64(nil), cdf.Values()...),
		recorded: rec.samples,
	}
}

// TestShardedPipelineMatchesSerial: the whole measurement chain — meter,
// collector, stream aggregator, stat and CDF sinks, and a strictly serial
// recorder behind a Fanout — must produce bit-identical observable state
// at every engine shard count (one shard being the serial engine), with
// and without a monitored-PM filter in the chain.
func TestShardedPipelineMatchesSerial(t *testing.T) {
	for _, subset := range []bool{false, true} {
		name := "all-pms"
		if subset {
			name = "filtered-pms"
		}
		t.Run(name, func(t *testing.T) {
			base := meteredRun(t, 1, subset, nil)
			if len(base.series) == 0 || len(base.recorded) == 0 {
				t.Fatal("serial campaign produced no output")
			}
			for _, shards := range []int{2, 3, 8} {
				got := meteredRun(t, shards, subset, nil)
				if !reflect.DeepEqual(base.series, got.series) {
					t.Errorf("shards=%d: collector series differs from serial", shards)
				}
				if base.aggTable != got.aggTable {
					t.Errorf("shards=%d: aggregator table differs from serial", shards)
				}
				if base.statSum != got.statSum {
					t.Errorf("shards=%d: host-CPU stat summary differs from serial", shards)
				}
				if !reflect.DeepEqual(base.cdf, got.cdf) {
					t.Errorf("shards=%d: Dom0-CPU CDF values differ from serial", shards)
				}
				if !reflect.DeepEqual(base.recorded, got.recorded) {
					t.Errorf("shards=%d: serial recorder stream differs from serial", shards)
				}
			}
		})
	}
}

// TestShardedMeterActuallyShards proves engine segments are measured in
// place on their shards and never defer: every kept step goes through the
// meter with zero irregular segments when all PMs are monitored.
func TestShardedMeterActuallyShards(t *testing.T) {
	reg := obs.NewRegistry()
	meteredRun(t, 8, false, reg)
	shardedSteps := reg.Counter("meter_sharded_steps_total", "").Value()
	if shardedSteps == 0 {
		t.Fatal("sharded engine never drove the meter")
	}
	if deferred := reg.Counter("meter_deferred_segments_total", "").Value(); deferred != 0 {
		t.Fatalf("engine segments deferred %d times; want 0 (canonical groups)", deferred)
	}
	if groups := reg.Counter("meter_groups_total", "").Value(); groups == 0 {
		t.Fatal("no PM groups measured")
	}

	// A filtered run may split groups; the deferral path must then engage
	// without changing output (output equality is covered above).
	reg2 := obs.NewRegistry()
	meteredRun(t, 8, true, reg2)
	if reg2.Counter("meter_sharded_steps_total", "").Value() == 0 {
		t.Fatal("filtered sharded run never drove the meter")
	}
}

// TestShardedIrregularSegmentsDefer drives the meter with a hand-built step
// in which a filter dropped one PM's Dom0 row, so that PM's segment is not
// a run of complete canonical groups and defers to the merge. The measured
// stream must be the same at one and two shards whichever PM lost the row:
// a partial group never reads a neighbouring PM's Dom0, and the Dom0 row
// it emits in place of the dropped one is labelled as that PM's.
func TestShardedIrregularSegmentsDefer(t *testing.T) {
	mk := func(pm int, t float64, dom0 bool) []sampling.Sample {
		name := fmt.Sprintf("pm%d", pm)
		out := []sampling.Sample{
			{Time: t, PMID: pm, PM: name, VMID: 0, Domain: "g0", Kind: sampling.KindGuest, Util: units.V(30, 100, 10, 200)},
		}
		if dom0 {
			out = append(out, sampling.Sample{Time: t, PMID: pm, PM: name, VMID: -1, Domain: sampling.LabelDom0, Kind: sampling.KindDom0, Util: units.V(8, 512, 0, 0)})
		}
		return append(out,
			sampling.Sample{Time: t, PMID: pm, PM: name, VMID: -1, Domain: sampling.LabelHypervisor, Kind: sampling.KindHypervisor, Util: units.V(3, 0, 0, 0)},
			sampling.Sample{Time: t, PMID: pm, PM: name, VMID: -1, Domain: sampling.LabelHost, Kind: sampling.KindHost, Util: units.V(41, 612, 10, 200)},
		)
	}
	measure := func(segs ...[]sampling.Sample) []sampling.Sample {
		rec := newRecordSink()
		m := NewMeter(DefaultNoise(), 77, rec)
		m.BeginStep(sampling.StepShape{Shards: len(segs), Time: 1, MaxPMID: 1})
		for s, seg := range segs {
			m.ConsumeShard(s, seg)
		}
		m.FinishStep()
		return rec.samples
	}
	for _, partial := range []int{0, 1} {
		pm0, pm1 := mk(0, 1, partial != 0), mk(1, 1, partial != 1)
		batch := append(append([]sampling.Sample{}, pm0...), pm1...)
		one, two := measure(batch), measure(pm0, pm1)
		if len(one) != 8 {
			t.Fatalf("partial pm%d: measured %d samples, want two full groups", partial, len(one))
		}
		if !reflect.DeepEqual(one, two) {
			t.Fatalf("partial pm%d: two-shard stream differs from one shard:\n one: %+v\n two: %+v",
				partial, one, two)
		}
		// Every emitted row, the filled-in Dom0 row included, carries its
		// group's PM and time and its own kind and label.
		kinds := []sampling.Kind{sampling.KindGuest, sampling.KindDom0, sampling.KindHypervisor, sampling.KindHost}
		labels := []string{"g0", sampling.LabelDom0, sampling.LabelHypervisor, sampling.LabelHost}
		for i, s := range one {
			pm, k := i/4, i%4
			if s.Time != 1 || s.PMID != pm || s.PM != fmt.Sprintf("pm%d", pm) ||
				s.Kind != kinds[k] || s.Domain != labels[k] || (k > 0 && s.VMID != -1) {
				t.Errorf("partial pm%d: row %d = %+v, want pm%d's %s row at time 1", partial, i, s, pm, kinds[k])
			}
		}
	}
}

// TestCollectorHostlessGroupShardInvariant feeds the collector a step in
// which a filter dropped pm0's host row, then a complete step. The group
// without its host row must yield no Measurement and must not merge into
// pm1's row, at one shard (one irregular segment) and at two (an irregular
// and a canonical segment) alike.
func TestCollectorHostlessGroupShardInvariant(t *testing.T) {
	group := func(pm int, tm float64, host bool) []sampling.Sample {
		name := fmt.Sprintf("pm%d", pm)
		out := []sampling.Sample{
			{Time: tm, PMID: pm, PM: name, VMID: pm, Domain: fmt.Sprintf("g%d", pm), Kind: sampling.KindGuest, Util: units.V(30, 100, 10, 200)},
			{Time: tm, PMID: pm, PM: name, VMID: -1, Domain: sampling.LabelDom0, Kind: sampling.KindDom0, Util: units.V(8+float64(pm), 512, 0, 0)},
			{Time: tm, PMID: pm, PM: name, VMID: -1, Domain: sampling.LabelHypervisor, Kind: sampling.KindHypervisor, Util: units.V(3, 0, 0, 0)},
		}
		if host {
			out = append(out, sampling.Sample{Time: tm, PMID: pm, PM: name, VMID: -1, Domain: sampling.LabelHost, Kind: sampling.KindHost, Util: units.V(41, 612, 10, 200)})
		}
		return out
	}
	collect := func(shards int) [][]Measurement {
		c := NewCollector()
		for step, hostless := range []bool{true, false} {
			tm := float64(step + 1)
			segs := [][]sampling.Sample{group(0, tm, !hostless), group(1, tm, true)}
			if shards == 1 {
				segs = [][]sampling.Sample{append(segs[0], segs[1]...)}
			}
			c.BeginStep(sampling.StepShape{Shards: shards, Time: tm, MaxPMID: 1})
			for s, seg := range segs {
				c.ConsumeShard(s, seg)
			}
			c.FinishStep()
		}
		return c.Series()
	}
	want := [][]Measurement{
		{{Time: 1, PM: "pm1", VMs: map[string]units.Vector{"g1": units.V(30, 100, 10, 200)},
			Dom0: units.V(9, 512, 0, 0), HypervisorCPU: 3, Host: units.V(41, 612, 10, 200)}},
		{{Time: 2, PM: "pm0", VMs: map[string]units.Vector{"g0": units.V(30, 100, 10, 200)},
			Dom0: units.V(8, 512, 0, 0), HypervisorCPU: 3, Host: units.V(41, 612, 10, 200)},
			{Time: 2, PM: "pm1", VMs: map[string]units.Vector{"g1": units.V(30, 100, 10, 200)},
				Dom0: units.V(9, 512, 0, 0), HypervisorCPU: 3, Host: units.V(41, 612, 10, 200)}},
	}
	for _, shards := range []int{1, 2} {
		if got := collect(shards); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: series\n got %+v\nwant %+v", shards, got, want)
		}
	}
}

// goldenMeteredCSV renders the measured stream of the fixture campaign as
// trace-style CSV lines (fixed formatting, no float ambiguity) so the
// fixture is human-diffable and byte-stable.
func goldenMeteredCSV(recorded []sampling.Sample) []byte {
	var buf bytes.Buffer
	buf.WriteString("time,pm,domain,kind,cpu,mem,io,bw\n")
	for _, s := range recorded {
		fmt.Fprintf(&buf, "%.3f,%s,%s,%s,%.6f,%.6f,%.6f,%.6f\n",
			s.Time, s.PM, s.Domain, s.Kind, s.Util.CPU, s.Util.Mem, s.Util.IO, s.Util.BW)
	}
	return buf.Bytes()
}

// TestMeteredCampaignGolden is the meter-determinism gate (make
// meter-determinism runs it under -cpu 1,2,8): the metered campaign's
// measured stream must be byte-identical to the committed fixture at
// shards {1,2,8}. Record with -update.
func TestMeteredCampaignGolden(t *testing.T) {
	runs := map[int][]byte{}
	for _, shards := range []int{1, 2, 8} {
		res := meteredRun(t, shards, false, nil)
		runs[shards] = goldenMeteredCSV(res.recorded)
	}
	for _, shards := range []int{2, 8} {
		if !bytes.Equal(runs[1], runs[shards]) {
			t.Fatalf("shards=%d metered stream differs from serial", shards)
		}
	}

	path := filepath.Join("testdata", "metered_campaign.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, runs[1], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run `go test ./internal/monitor -run MeteredCampaignGolden -update`): %v", err)
	}
	if !bytes.Equal(runs[1], want) {
		t.Fatalf("metered stream differs from golden fixture (%d vs %d bytes); if intentional, re-record with -update",
			len(runs[1]), len(want))
	}
}
