// Package sampling is the unified sample-sink pipeline of the simulator:
// the engine pushes one Sample per domain per step into attached Sinks, and
// every downstream consumer — the measurement-tool emulation, trace
// recording, streaming statistics, campaign analyses, controllers — is a
// Sink (or a small chain of them). This mirrors the paper's method, where a
// single synchronized 1 Hz script feeds every analysis, and replaces the
// per-consumer snapshot loops the code base grew out of.
//
// A Sink chain is composed from small stages:
//
//	engine ──▶ Decimate ──▶ Meter (adds tool noise) ──▶ Fanout ─┬─▶ CSVSink
//	                                                            ├─▶ StreamAggregator
//	                                                            └─▶ StatSink / CDFSink
//
// Samples arrive in a deterministic order: PMs in cluster order, and within
// a PM the guests in arena order followed by Domain-0, the hypervisor and
// the host row. Consumers may rely on that order (the trace writer does —
// no sorting required), and on Time being non-decreasing with all samples
// of one step delivered before the next step begins.
//
// # The step contract
//
// Every Sink takes the stream one simulation step at a time. The producer
// assembles the step's batch in PM-disjoint segments, one per shard — a
// sharded engine fills them on its worker pool; a serial engine,
// PushSeries and tests use one shard — and per step calls:
//
//  1. BeginStep(shape) on the stepping goroutine, before any segment
//     exists. The sink sizes its per-shard scratch and passes the call on.
//  2. ConsumeShard(s, seg) exactly once per shard s in [0, shape.Shards),
//     possibly with an empty segment, possibly concurrently from several
//     goroutines. Concatenated in ascending shard order the segments are
//     the step's batch in emission order, and the PMs of different
//     segments are disjoint. The sink may only write per-shard state here
//     (plus atomic instruments); the slice stays valid until FinishStep
//     returns but must not be retained after.
//  3. FinishStep() on the stepping goroutine, after every ConsumeShard
//     happened-before it. The sink folds its per-shard partials in
//     ascending shard order — the ordered single-writer merge — so its
//     state afterwards is the same, bit for bit, at every shard count:
//     Welford moments, P² percentiles and every other float fold are
//     order-sensitive, and ascending shard order is emission order.
//
// A segment holds whole PM groups unless a filter dropped part of one.
// Selectors, Keep funcs and other callbacks reached from ConsumeShard must
// be safe for concurrent use (pure functions are). Strictly serial
// consumers — a writer, a counter, a user function — attach through the
// one adapter, Serial, which feeds them the step at FinishStep.
package sampling

import (
	"errors"

	"virtover/internal/obs"
	"virtover/internal/units"
)

// Kind identifies the domain a sample describes.
type Kind uint8

// The four domain kinds, in per-PM emission order (guests first, host last).
const (
	KindGuest Kind = iota
	KindDom0
	KindHypervisor
	KindHost
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindGuest:
		return "guest"
	case KindDom0:
		return "dom0"
	case KindHypervisor:
		return "hypervisor"
	case KindHost:
		return "host"
	default:
		return "unknown"
	}
}

// Canonical domain labels for non-guest rows, shared by the engine emitter
// and the trace format.
const (
	LabelDom0       = "Domain-0"
	LabelHypervisor = "hypervisor"
	LabelHost       = "host"
)

// Sample is one per-step, per-domain utilization reading. Ground-truth
// samples come straight from the engine; measured samples have passed
// through the monitor's tool emulation. Sample is a value type: sinks may
// retain it freely (but not the batch slice it arrived in).
type Sample struct {
	// Time is the simulation time in seconds at the end of the step.
	Time float64
	// PMID is the hosting PM's dense arena ID; PM is its name.
	PMID int
	PM   string
	// VMID is the guest's dense arena ID for KindGuest samples, -1
	// otherwise.
	VMID int
	// Domain is the guest name for KindGuest, else one of the Label
	// constants.
	Domain string
	Kind   Kind
	// Util is the domain's utilization. Hypervisor samples carry CPU only.
	Util units.Vector
}

// Sink consumes a sample stream under the step contract above. Sinks run
// synchronously inside the producer's step and must not block for long.
// Implementations that can fail (e.g. writers) should record the first
// error internally and expose it from a Flush or Err method.
type Sink interface {
	// BeginStep opens one step on the stepping goroutine.
	BeginStep(shape StepShape)
	// ConsumeShard ingests shard s's segment: exactly once per shard
	// between BeginStep and FinishStep, concurrently or not.
	ConsumeShard(shard int, seg []Sample)
	// FinishStep merges the per-shard partials in shard order.
	FinishStep()
}

// StepShape describes one step delivery.
type StepShape struct {
	// Shards is the number of segments the step batch is split into.
	Shards int
	// Time is the step's sample time (all samples of the step carry it).
	Time float64
	// MaxPMID is the largest PM arena ID that can appear in the step, so
	// sinks with dense pmID-indexed state can pre-size it once instead of
	// growing from concurrent ConsumeShard calls.
	MaxPMID int
}

// Serial is the step contract's one adapter for strictly serial consumers:
// it holds each shard's segment and, at FinishStep on the stepping
// goroutine, calls fn with the step's non-empty segments in ascending
// shard order — the emission order. fn never runs concurrently and must
// not retain the slice.
type Serial struct {
	fn   func([]Sample)
	segs [][]Sample
}

// NewSerial adapts fn to the step contract.
func NewSerial(fn func([]Sample)) *Serial { return &Serial{fn: fn} }

// BeginStep implements Sink.
func (s *Serial) BeginStep(shape StepShape) {
	if cap(s.segs) < shape.Shards {
		s.segs = make([][]Sample, shape.Shards)
	}
	s.segs = s.segs[:shape.Shards]
}

// ConsumeShard implements Sink: the segment is held for FinishStep.
func (s *Serial) ConsumeShard(shard int, seg []Sample) { s.segs[shard] = seg }

// FinishStep implements Sink.
func (s *Serial) FinishStep() {
	for i, seg := range s.segs {
		if len(seg) > 0 {
			s.fn(seg)
		}
		s.segs[i] = nil
	}
}

// Fanout delivers the stream to each member, in attach order at every
// phase of the step: each member consumes a shard's segment on the
// goroutine that delivered it, and members merge in attach order.
type Fanout []Sink

// BeginStep implements Sink.
func (f Fanout) BeginStep(shape StepShape) {
	for _, k := range f {
		k.BeginStep(shape)
	}
}

// ConsumeShard implements Sink.
func (f Fanout) ConsumeShard(shard int, seg []Sample) {
	for _, k := range f {
		k.ConsumeShard(shard, seg)
	}
}

// FinishStep implements Sink.
func (f Fanout) FinishStep() {
	for _, k := range f {
		k.FinishStep()
	}
}

// Err surfaces member errors in attach order, probing each sink for the
// pipeline's `Err() error` convention and joining the non-nil results.
func (f Fanout) Err() error {
	var errs []error
	for _, s := range f {
		if e, ok := s.(interface{ Err() error }); ok {
			if err := e.Err(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Filter forwards the samples Keep accepts to Next. The optional Kept and
// Dropped counters (nil-safe no-ops when unset; atomic, so concurrent
// shards may add to them) record the filter's pass ratio; monitor.Script
// wires them when observability is enabled.
type Filter struct {
	Keep func(Sample) bool
	Next Sink

	Kept    *obs.Counter
	Dropped *obs.Counter

	buf [][]Sample // per-shard kept copies
}

// BeginStep implements Sink.
func (f *Filter) BeginStep(shape StepShape) {
	if len(f.buf) < shape.Shards {
		buf := make([][]Sample, shape.Shards)
		copy(buf, f.buf)
		f.buf = buf
	}
	f.Next.BeginStep(shape)
}

// ConsumeShard implements Sink: the kept samples of a segment are forwarded
// as one sub-segment, through the incoming slice itself when everything is
// kept (the common monitored-PM case — segments hold whole PM groups) and
// through a reused per-shard copy otherwise.
func (f *Filter) ConsumeShard(shard int, seg []Sample) {
	kept := 0
	for i := range seg {
		if f.Keep(seg[i]) {
			kept++
		}
	}
	f.Kept.Add(uint64(kept))
	f.Dropped.Add(uint64(len(seg) - kept))
	if kept == len(seg) {
		f.Next.ConsumeShard(shard, seg)
		return
	}
	buf := f.buf[shard][:0]
	for i := range seg {
		if f.Keep(seg[i]) {
			buf = append(buf, seg[i])
		}
	}
	f.buf[shard] = buf
	f.Next.ConsumeShard(shard, buf)
}

// FinishStep implements Sink.
func (f *Filter) FinishStep() { f.Next.FinishStep() }

// Decimator forwards every Nth simulation step (all of that step's samples)
// and drops the rest, implementing the measurement script's sampling
// interval. Steps are counted at BeginStep, so a step counts whether or not
// an upstream filter left it any samples. The first forwarded step is the
// Nth one seen, matching a script that samples after every N engine steps.
type Decimator struct {
	every int
	next  Sink
	step  int
	keep  bool // the current step is forwarded

	kept    *obs.Counter // steps forwarded
	dropped *obs.Counter // steps decimated away
}

// Instrument attaches keep/drop step counters (nil-safe): every step
// decision increments exactly one of them, so kept+dropped equals the
// steps observed and dropped/(kept+dropped) is the decimation ratio.
func (d *Decimator) Instrument(kept, dropped *obs.Counter) {
	d.kept, d.dropped = kept, dropped
}

// Decimate builds a Decimator; every < 1 is treated as 1 (forward all).
func Decimate(every int, next Sink) *Decimator {
	if every < 1 {
		every = 1
	}
	return &Decimator{every: every, next: next}
}

// BeginStep implements Sink: the one keep decision per step. A dropped
// step reaches no stage downstream.
func (d *Decimator) BeginStep(shape StepShape) {
	d.step++
	d.keep = d.step%d.every == 0
	if !d.keep {
		d.dropped.Inc()
		return
	}
	d.kept.Inc()
	d.next.BeginStep(shape)
}

// ConsumeShard implements Sink.
func (d *Decimator) ConsumeShard(shard int, seg []Sample) {
	if d.keep {
		d.next.ConsumeShard(shard, seg)
	}
}

// FinishStep implements Sink.
func (d *Decimator) FinishStep() {
	if d.keep {
		d.next.FinishStep()
	}
}

// Reset clears the step parity so the decimator can be reused for a fresh
// run: the next step seen counts as step 1 again. monitor.Script calls it
// when (re)attaching, so back-to-back runs never inherit phase from a
// previous campaign.
func (d *Decimator) Reset() { d.step, d.keep = 0, false }

// Counter counts samples per kind; useful in tests and sanity checks. It is
// a strictly serial consumer: attach it as NewSerial(c.Count).
type Counter struct {
	Total  int
	ByKind [4]int
}

// Count adds one batch to the tallies.
func (c *Counter) Count(batch []Sample) {
	c.Total += len(batch)
	for i := range batch {
		if k := int(batch[i].Kind); k < len(c.ByKind) {
			c.ByKind[k]++
		}
	}
}
