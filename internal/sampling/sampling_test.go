package sampling

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"virtover/internal/units"
)

// step delivers one single-shard step.
func step(sink Sink, time float64, batch []Sample) {
	sink.BeginStep(StepShape{Shards: 1, Time: time, MaxPMID: 0})
	sink.ConsumeShard(0, batch)
	sink.FinishStep()
}

// emit pushes n steps of a two-domain stream (one guest + one host row per
// step) into sink.
func emit(sink Sink, steps int) {
	for i := 0; i < steps; i++ {
		t := float64(i + 1)
		step(sink, t, []Sample{
			{Time: t, PMID: 0, PM: "pm1", VMID: 0, Domain: "vm1",
				Kind: KindGuest, Util: units.V(float64(10+i), 100, 1, 10)},
			{Time: t, PMID: 0, PM: "pm1", VMID: -1, Domain: LabelHost,
				Kind: KindHost, Util: units.V(float64(20+i), 200, 2, 20)},
		})
	}
}

// groupFor builds one canonical PM group (guest, Dom0, hypervisor, host) at
// the given time with PM-distinct utilizations.
func groupFor(pm int, t float64) []Sample {
	base := float64(pm + 1)
	return []Sample{
		{Time: t, PMID: pm, PM: "pm", VMID: 0, Domain: "g0", Kind: KindGuest, Util: units.V(10*base, 100, 5, 50)},
		{Time: t, PMID: pm, PM: "pm", VMID: -1, Domain: LabelDom0, Kind: KindDom0, Util: units.V(3*base, 400, 0, 0)},
		{Time: t, PMID: pm, PM: "pm", VMID: -1, Domain: LabelHypervisor, Kind: KindHypervisor, Util: units.V(base, 0, 0, 0)},
		{Time: t, PMID: pm, PM: "pm", VMID: -1, Domain: LabelHost, Kind: KindHost, Util: units.V(14*base, 500, 5, 50)},
	}
}

// deliver feeds sink one step of nPM groups split into contiguous PM
// ranges, one ConsumeShard per shard, the way the engine does.
func deliver(sink Sink, shards, nPM int, time float64) {
	sink.BeginStep(StepShape{Shards: shards, Time: time, MaxPMID: nPM - 1})
	per := (nPM + shards - 1) / shards
	for s := 0; s < shards; s++ {
		var seg []Sample
		for pm := s * per; pm < (s+1)*per && pm < nPM; pm++ {
			seg = append(seg, groupFor(pm, time)...)
		}
		sink.ConsumeShard(s, seg)
	}
	sink.FinishStep()
}

// recorder copies the stream it is fed through the serial adapter.
type recorder struct{ samples []Sample }

func (r *recorder) sink() *Serial {
	return NewSerial(func(b []Sample) { r.samples = append(r.samples, b...) })
}

func TestSerialFeedsSegmentsInShardOrder(t *testing.T) {
	var calls [][]Sample
	s := NewSerial(func(b []Sample) { calls = append(calls, append([]Sample(nil), b...)) })
	g0, g2 := groupFor(0, 1), groupFor(2, 1)
	s.BeginStep(StepShape{Shards: 3, Time: 1, MaxPMID: 2})
	s.ConsumeShard(2, g2) // out of order, and shard 1 is empty
	s.ConsumeShard(1, nil)
	s.ConsumeShard(0, g0)
	if len(calls) != 0 {
		t.Fatal("serial consumer ran before FinishStep")
	}
	s.FinishStep()
	if !reflect.DeepEqual(calls, [][]Sample{g0, g2}) {
		t.Fatalf("serial consumer saw %v, want shard 0 then shard 2", calls)
	}
}

func TestFanoutDeliversToAll(t *testing.T) {
	var a, b Counter
	emit(Fanout{NewSerial(a.Count), NewSerial(b.Count)}, 3)
	if a.Total != 6 || b.Total != 6 {
		t.Fatalf("fanout totals = %d, %d; want 6, 6", a.Total, b.Total)
	}
	if a.ByKind[KindGuest] != 3 || a.ByKind[KindHost] != 3 {
		t.Fatalf("fanout kinds = %v", a.ByKind)
	}
}

func TestFilter(t *testing.T) {
	var c Counter
	f := &Filter{Keep: func(s Sample) bool { return s.Kind == KindHost }, Next: NewSerial(c.Count)}
	emit(f, 4)
	if c.Total != 4 || c.ByKind[KindGuest] != 0 {
		t.Fatalf("filter passed %d samples (%v), want 4 host rows", c.Total, c.ByKind)
	}
}

// TestFilterBatchForwardsKeptRuns: a segment's kept samples go downstream
// as one sub-segment — the incoming slice itself when everything is kept.
func TestFilterBatchForwardsKeptRuns(t *testing.T) {
	var segs [][]Sample
	next := NewSerial(func(b []Sample) { segs = append(segs, b) })
	b := groupFor(0, 1)
	step(&Filter{Keep: func(s Sample) bool { return s.Kind != KindGuest }, Next: next}, 1, b)
	if len(segs) != 1 || !reflect.DeepEqual(segs[0], b[1:]) {
		t.Fatalf("filtered segments = %v, want one [dom0 hyp host]", segs)
	}
	segs = nil
	step(&Filter{Keep: func(Sample) bool { return true }, Next: next}, 1, b)
	if len(segs) != 1 || &segs[0][0] != &b[0] {
		t.Fatal("keep-all filter did not pass the incoming segment through")
	}
}

// TestFilterBatchScalarNext: a filter in front of a strictly serial
// consumer hands it exactly the kept samples.
func TestFilterBatchScalarNext(t *testing.T) {
	var r recorder
	b := groupFor(0, 2)
	step(&Filter{Keep: func(s Sample) bool { return s.Kind == KindHost }, Next: r.sink()}, 2, b)
	if !reflect.DeepEqual(r.samples, b[len(b)-1:]) {
		t.Fatalf("serial next saw %v, want the host row", r.samples)
	}
}

func TestDecimatorForwardsEveryNthStep(t *testing.T) {
	var c Counter
	emit(Decimate(3, NewSerial(c.Count)), 10)
	// Steps 3, 6, 9 forwarded, two samples each.
	if c.Total != 6 {
		t.Fatalf("decimated total = %d, want 6", c.Total)
	}
	var times []float64
	d := Decimate(2, NewSerial(func(b []Sample) {
		for _, s := range b {
			if s.Kind == KindHost {
				times = append(times, s.Time)
			}
		}
	}))
	emit(d, 5)
	if want := []float64{2, 4}; !reflect.DeepEqual(times, want) {
		t.Fatalf("decimated host times = %v, want %v", times, want)
	}
}

func TestDecimatorEveryOneKeepsAll(t *testing.T) {
	var c Counter
	emit(Decimate(0, NewSerial(c.Count)), 4)
	if c.Total != 8 {
		t.Fatalf("every<1 total = %d, want all 8", c.Total)
	}
}

// TestDecimatorBatchMatchesScalar: the decimator keeps the same steps
// whether a step arrives as one segment or as one segment per sample.
func TestDecimatorBatchMatchesScalar(t *testing.T) {
	for _, every := range []int{1, 2, 3, 5} {
		var whole, split recorder
		dw, ds := Decimate(every, whole.sink()), Decimate(every, split.sink())
		for st := 1; st <= 12; st++ {
			b := groupFor(0, float64(st))
			step(dw, float64(st), b)
			ds.BeginStep(StepShape{Shards: len(b), Time: float64(st)})
			for i := range b {
				ds.ConsumeShard(i, b[i:i+1])
			}
			ds.FinishStep()
		}
		if len(whole.samples) != 12/every*4 || !reflect.DeepEqual(whole.samples, split.samples) {
			t.Fatalf("every=%d: one segment kept %d samples, per-sample segments %d",
				every, len(whole.samples), len(split.samples))
		}
	}
}

// stepSpy records which steps reach it.
type stepSpy struct {
	begun    []float64
	finished int
}

func (s *stepSpy) BeginStep(shape StepShape)  { s.begun = append(s.begun, shape.Time) }
func (s *stepSpy) ConsumeShard(int, []Sample) {}
func (s *stepSpy) FinishStep()                { s.finished++ }

// TestDecimatorShardedDropsAndCascades: a decimated step reaches no stage
// downstream — not even its BeginStep — and a kept one cascades whole, at
// any shard count.
func TestDecimatorShardedDropsAndCascades(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		spy := &stepSpy{}
		d := Decimate(2, spy)
		for st := 1; st <= 6; st++ {
			deliver(d, shards, 4, float64(st))
		}
		if want := []float64{2, 4, 6}; !reflect.DeepEqual(spy.begun, want) || spy.finished != 3 {
			t.Fatalf("shards=%d: downstream saw steps %v (%d finished), want %v",
				shards, spy.begun, spy.finished, want)
		}
	}
}

// A decimator reused across runs must not inherit step parity: Reset
// restores the fresh behavior.
func TestDecimatorResetClearsParity(t *testing.T) {
	var c Counter
	d := Decimate(3, NewSerial(c.Count))
	// First run stops mid-cycle: 4 steps, only step 3 forwarded.
	for st := 1; st <= 4; st++ {
		deliver(d, 1, 1, float64(st))
	}
	if c.Total != 4 {
		t.Fatalf("first run forwarded %d samples, want 4", c.Total)
	}
	d.Reset()
	c = Counter{}
	// Without Reset the stale parity would shift which steps are kept.
	for st := 1; st <= 6; st++ {
		deliver(d, 1, 1, float64(st))
	}
	if c.Total != 8 { // steps 3 and 6, four samples each
		t.Fatalf("after Reset forwarded %d samples, want 8", c.Total)
	}
}

// TestFanoutBatchMixedSinks: a shard-native member and serial members all
// see the whole step.
func TestFanoutBatchMixedSinks(t *testing.T) {
	var r recorder
	var c Counter
	cdf := NewCDFSink(SelectKind(KindHost, units.CPU))
	b := groupFor(0, 1)
	step(Fanout{cdf, r.sink(), NewSerial(c.Count)}, 1, b)
	if !reflect.DeepEqual(r.samples, b) || c.Total != len(b) || len(cdf.Values()) != 1 {
		t.Fatalf("members saw %d samples, %d counted, %d CDF values", len(r.samples), c.Total, len(cdf.Values()))
	}
}

func TestCounterBatch(t *testing.T) {
	var c Counter
	c.Count(groupFor(0, 1))
	if c.Total != 4 || c.ByKind[KindGuest] != 1 || c.ByKind[KindHost] != 1 {
		t.Fatalf("counter = %+v", c)
	}
}

func TestStatAndCDFSinkBatch(t *testing.T) {
	stat := NewStatSink(SelectKind(KindGuest, units.CPU))
	cdf := NewCDFSink(SelectKind(KindGuest, units.CPU))
	for st := 1; st <= 5; st++ {
		b := make([]Sample, 3)
		for i := range b { // guest CPUs 0,1,2 each step
			b[i] = Sample{Time: float64(st), Kind: KindGuest, Util: units.V(float64(i), 0, 0, 0)}
		}
		step(Fanout{stat, cdf}, float64(st), b)
	}
	if sum := stat.Summary(); sum.N != 15 || sum.Min != 0 || sum.Max != 2 {
		t.Fatalf("stat summary = %+v", sum)
	}
	if len(cdf.Values()) != 15 {
		t.Fatalf("cdf retained %d values, want 15", len(cdf.Values()))
	}
}

// TestStatAndCDFShardedMatchSerial folds the same 3-step stream at several
// shard counts and requires summaries and value sequences identical to
// one shard's.
func TestStatAndCDFShardedMatchSerial(t *testing.T) {
	const nPM = 7
	sel := SelectKind(KindHost, units.CPU)
	run := func(shards int) (Summary, []float64) {
		stat, cdf := NewStatSink(sel), NewCDFSink(sel)
		for st := 1; st <= 3; st++ {
			deliver(Fanout{stat, cdf}, shards, nPM, float64(st))
		}
		return stat.Summary(), cdf.Values()
	}
	serStat, serCDF := run(1)
	for _, shards := range []int{2, 3, 8} {
		shStat, shCDF := run(shards)
		if serStat != shStat {
			t.Errorf("shards=%d: stat summary differs from one shard", shards)
		}
		if !reflect.DeepEqual(serCDF, shCDF) {
			t.Errorf("shards=%d: CDF values differ from one shard", shards)
		}
	}
}

// TestFilterShardedMatchesSerial: the kept sub-stream is the same at every
// shard count, including the pass-through of a segment that keeps all.
func TestFilterShardedMatchesSerial(t *testing.T) {
	const nPM = 6
	run := func(shards int, keep func(Sample) bool) []float64 {
		out := NewCDFSink(SelectKind(KindHost, units.CPU))
		f := &Filter{Keep: keep, Next: out}
		for st := 1; st <= 2; st++ {
			deliver(f, shards, nPM, float64(st))
		}
		return out.Values()
	}
	keepOdd := func(s Sample) bool { return s.PMID%2 == 1 }
	keepAll := func(Sample) bool { return true }
	if got := run(1, keepOdd); len(got) != 2*3 { // two steps, three odd PMs
		t.Fatalf("one-shard filter kept %d host rows, want 6", len(got))
	}
	for _, shards := range []int{2, 3} {
		if !reflect.DeepEqual(run(1, keepOdd), run(shards, keepOdd)) {
			t.Errorf("shards=%d: filtered stream differs from one shard", shards)
		}
		if !reflect.DeepEqual(run(1, keepAll), run(shards, keepAll)) {
			t.Errorf("shards=%d: keep-all filter altered the stream", shards)
		}
	}
}

// TestShardedFanoutMixedMembers: a Fanout's shard-native members consume
// live segments and its serial members get the same stream in ascending
// shard order at the merge; both equal the one-shard reference.
func TestShardedFanoutMixedMembers(t *testing.T) {
	const nPM = 5
	sel := SelectKind(KindHost, units.CPU)
	run := func(shards int) ([]float64, []Sample) {
		cdf := NewCDFSink(sel)
		var r recorder
		for st := 1; st <= 2; st++ {
			deliver(Fanout{cdf, r.sink()}, shards, nPM, float64(st))
		}
		return cdf.Values(), r.samples
	}
	refVals, refRec := run(1)
	vals, rec := run(2)
	if !reflect.DeepEqual(refVals, vals) {
		t.Error("shard-native member's stream differs from one shard")
	}
	if len(rec) != 2*4*nPM || !reflect.DeepEqual(refRec, rec) {
		t.Error("serial member's stream differs from one shard")
	}
}

// errSink is a failable sink following the pipeline's Err() convention.
type errSink struct{ err error }

func (e *errSink) BeginStep(StepShape)        {}
func (e *errSink) ConsumeShard(int, []Sample) {}
func (e *errSink) FinishStep()                {}
func (e *errSink) Err() error                 { return e.err }

// TestShardedFanoutErrJoins: Fanout.Err must join every failing member, in
// attach order.
func TestShardedFanoutErrJoins(t *testing.T) {
	errA, errB := errors.New("sink A failed"), errors.New("sink B failed")
	fan := Fanout{&errSink{err: errA}, NewSerial(func([]Sample) {}), &errSink{}, &errSink{err: errB}}
	err := fan.Err()
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("Err() = %v, want both member errors joined", err)
	}
	if err := (Fanout{&errSink{}}).Err(); err != nil {
		t.Fatalf("healthy fanout Err() = %v, want nil", err)
	}
}

func TestStatSinkSummary(t *testing.T) {
	s := NewStatSink(SelectKind(KindHost, units.CPU))
	emit(s, 100)
	sum := s.Summary()
	if sum.N != 100 {
		t.Fatalf("N = %d, want 100", sum.N)
	}
	// Host CPU ramps 20..119: mean 69.5.
	if math.Abs(sum.Mean-69.5) > 1e-9 {
		t.Errorf("mean = %v, want 69.5", sum.Mean)
	}
	if sum.Min != 20 || sum.Max != 119 {
		t.Errorf("min/max = %v/%v, want 20/119", sum.Min, sum.Max)
	}
	if math.Abs(sum.P50-69.5) > 3 {
		t.Errorf("p50 = %v, want ~69.5", sum.P50)
	}
}

func TestSelectors(t *testing.T) {
	smp := Sample{PM: "pm2", Domain: "vmX", Kind: KindGuest, Util: units.V(7, 8, 9, 10)}
	if v, ok := SelectKind(KindGuest, units.Mem)(smp); !ok || v != 8 {
		t.Errorf("SelectKind = %v, %v", v, ok)
	}
	if _, ok := SelectKind(KindHost, units.Mem)(smp); ok {
		t.Error("SelectKind matched wrong kind")
	}
	if v, ok := SelectPM("pm2", KindGuest, units.BW)(smp); !ok || v != 10 {
		t.Errorf("SelectPM = %v, %v", v, ok)
	}
	if _, ok := SelectPM("pm1", KindGuest, units.BW)(smp); ok {
		t.Error("SelectPM matched wrong PM")
	}
	if v, ok := SelectDomain("vmX", units.CPU)(smp); !ok || v != 7 {
		t.Errorf("SelectDomain = %v, %v", v, ok)
	}
}

func TestCDFSink(t *testing.T) {
	c := NewCDFSink(SelectKind(KindGuest, units.CPU))
	emit(c, 10)
	if len(c.Values()) != 10 {
		t.Fatalf("CDF values = %d, want 10", len(c.Values()))
	}
	cdf := c.CDF()
	// Guest CPU ramps 10..19; everything is <= 19.
	if got := cdf.At(19); got != 1 {
		t.Errorf("CDF at max = %v, want 1", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindGuest: "guest", KindDom0: "dom0",
		KindHypervisor: "hypervisor", KindHost: "host", Kind(99): "unknown"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
