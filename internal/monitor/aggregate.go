package monitor

import (
	"fmt"
	"sort"
	"strings"

	"virtover/internal/sampling"
)

// StreamAggregator folds an unbounded measurement stream into O(1)-memory
// summaries per PM and metric, built on the sampling package's online
// estimators (Welford moments plus P² percentiles). Long monitoring
// campaigns (hours of 1 Hz samples) use it instead of retaining the full
// series. It is a sampling.Sink: attach it (behind a Meter) to the engine
// to aggregate live, or feed it recorded measurements via Observe.
//
// Segments are PM-disjoint, so each pmAgg is touched by exactly one shard
// and the estimators fold in place with no synchronization. Only samples
// for PMs without an estimator bundle yet (the first step of a campaign,
// or a PM added mid-run) are staged per shard and folded at the merge, in
// shard order — so estimator creation order, and every order-sensitive
// fold, is the same at every shard count.
type StreamAggregator struct {
	pms  map[string]*pmAgg
	pend [][]sampling.Sample // per-shard samples awaiting a new pmAgg
}

// MetricSummary is the exported snapshot of one metric's stream.
type MetricSummary = sampling.Summary

// pmAgg summarizes one PM's stream.
type pmAgg struct {
	pmCPU, pmIO, pmBW, pmMem *sampling.Stat
	dom0CPU, hypCPU          *sampling.Stat
}

func newPMAgg() *pmAgg {
	return &pmAgg{
		pmCPU: sampling.NewStat(), pmIO: sampling.NewStat(),
		pmBW: sampling.NewStat(), pmMem: sampling.NewStat(),
		dom0CPU: sampling.NewStat(), hypCPU: sampling.NewStat(),
	}
}

// NewStreamAggregator creates an empty aggregator.
func NewStreamAggregator() *StreamAggregator {
	return &StreamAggregator{pms: make(map[string]*pmAgg)}
}

func (a *StreamAggregator) agg(pm string) *pmAgg {
	agg := a.pms[pm]
	if agg == nil {
		agg = newPMAgg()
		a.pms[pm] = agg
	}
	return agg
}

// consume folds one measured sample: Dom0, hypervisor, and host rows feed
// the per-PM streams (guest rows are ignored — the host row already
// carries the indirect sums).
func (a *StreamAggregator) consume(s sampling.Sample) {
	switch s.Kind {
	case sampling.KindDom0:
		a.agg(s.PM).dom0CPU.Add(s.Util.CPU)
	case sampling.KindHypervisor:
		a.agg(s.PM).hypCPU.Add(s.Util.CPU)
	case sampling.KindHost:
		agg := a.agg(s.PM)
		agg.pmCPU.Add(s.Util.CPU)
		agg.pmMem.Add(s.Util.Mem)
		agg.pmIO.Add(s.Util.IO)
		agg.pmBW.Add(s.Util.BW)
	}
}

// BeginStep implements sampling.Sink.
func (a *StreamAggregator) BeginStep(shape sampling.StepShape) {
	for len(a.pend) < shape.Shards {
		a.pend = append(a.pend, nil)
	}
	a.pend = a.pend[:shape.Shards]
	for s := range a.pend {
		a.pend[s] = a.pend[s][:0]
	}
}

// ConsumeShard implements sampling.Sink: known PMs fold into their
// estimators right on the shard's goroutine (the map is only read here —
// estimator creation is deferred to the merge); unknown PMs are staged. A
// segment arrives grouped by PM, so the estimator bundle is looked up once
// per PM.
func (a *StreamAggregator) ConsumeShard(shard int, seg []sampling.Sample) {
	var agg *pmAgg
	var pm string
	known := false
	for i := range seg {
		s := &seg[i]
		if s.Kind == sampling.KindGuest {
			continue
		}
		if !known || s.PM != pm {
			pm = s.PM
			agg = a.pms[pm]
			known = true
		}
		if agg == nil {
			a.pend[shard] = append(a.pend[shard], *s)
			continue
		}
		switch s.Kind {
		case sampling.KindDom0:
			agg.dom0CPU.Add(s.Util.CPU)
		case sampling.KindHypervisor:
			agg.hypCPU.Add(s.Util.CPU)
		case sampling.KindHost:
			agg.pmCPU.Add(s.Util.CPU)
			agg.pmMem.Add(s.Util.Mem)
			agg.pmIO.Add(s.Util.IO)
			agg.pmBW.Add(s.Util.BW)
		}
	}
}

// FinishStep implements sampling.Sink: staged samples of newly seen PMs
// fold in shard order, creating their estimators in PM order at every
// shard count.
func (a *StreamAggregator) FinishStep() {
	for s := range a.pend {
		for i := range a.pend[s] {
			a.consume(a.pend[s][i])
		}
		a.pend[s] = a.pend[s][:0]
	}
}

// Observe folds one measurement into the stream by replaying it through
// the sink contract.
func (a *StreamAggregator) Observe(m Measurement) {
	PushSeries([][]Measurement{{m}}, a)
}

// ObserveSeries folds a whole recorded series through the sink contract.
func (a *StreamAggregator) ObserveSeries(series [][]Measurement) {
	PushSeries(series, a)
}

// PMSummary is the per-PM snapshot.
type PMSummary struct {
	PM                       string
	PMCPU, PMMem, PMIO, PMBW MetricSummary
	Dom0CPU, HypCPU          MetricSummary
}

// Summary returns per-PM summaries sorted by PM name.
func (a *StreamAggregator) Summary() []PMSummary {
	names := make([]string, 0, len(a.pms))
	for n := range a.pms {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]PMSummary, 0, len(names))
	for _, n := range names {
		agg := a.pms[n]
		out = append(out, PMSummary{
			PM:      n,
			PMCPU:   agg.pmCPU.Summary(),
			PMMem:   agg.pmMem.Summary(),
			PMIO:    agg.pmIO.Summary(),
			PMBW:    agg.pmBW.Summary(),
			Dom0CPU: agg.dom0CPU.Summary(),
			HypCPU:  agg.hypCPU.Summary(),
		})
	}
	return out
}

// Render prints the summaries as a table.
func (a *StreamAggregator) Render() string {
	var b strings.Builder
	for _, s := range a.Summary() {
		fmt.Fprintf(&b, "%s (%d samples)\n", s.PM, s.PMCPU.N)
		row := func(name, unit string, m MetricSummary) {
			fmt.Fprintf(&b, "  %-10s mean %9.2f  std %8.2f  p50 %9.2f  p90 %9.2f  p99 %9.2f  [%s]\n",
				name, m.Mean, m.Std, m.P50, m.P90, m.P99, unit)
		}
		row("pm cpu", "%", s.PMCPU)
		row("pm mem", "MB", s.PMMem)
		row("pm io", "blk/s", s.PMIO)
		row("pm bw", "Kb/s", s.PMBW)
		row("dom0 cpu", "%", s.Dom0CPU)
		row("hyp cpu", "%", s.HypCPU)
	}
	return b.String()
}
