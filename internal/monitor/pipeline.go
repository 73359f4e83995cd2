package monitor

import (
	"virtover/internal/obs"
	"virtover/internal/sampling"
	"virtover/internal/units"
)

// Meter is the measurement stage of the sample pipeline: it receives the
// engine's ground-truth samples and forwards *measured* samples, applying
// each emulated tool's capability envelope and noise exactly as the
// paper's script does. Per-PM tool instances are created lazily, seeded
// from Seed and the PM's dense ID, so a PM's noise streams are independent
// of which other PMs are monitored.
//
// The Meter relies on the engine's emission order (guests, then Domain-0,
// hypervisor, host, per PM) and processes one PM group at a time: real
// tools read whole screens, not single rows, so the noise draws happen per
// tool in screen order when the group's host sample arrives — xentop's
// screen (Dom0 first, guests in sorted-name order), then top inside each
// guest, top in Dom0, mpstat, vmstat, ifconfig. The host row's CPU and
// memory are computed indirectly from the measured domain readings — the
// paper's "PM CPU is never measured directly" method.
//
// The Meter is allocation-free in steady state: complete PM groups are
// sliced directly out of the incoming segment (no buffering), the tool
// instruments live in a dense pmID-indexed slice, and each shard measures
// into its own reused scratch and forwards one measured segment downstream.
//
// Each shard's segment is measured in one pass, in (PM, time) runs, on the
// goroutine that delivered it — for a sharded engine, the worker that
// stepped those PMs (DESIGN.md §13). This is deterministic by construction
// — each PM's noise streams come from its own instruments, a PM belongs to
// exactly one shard per step, and within a shard groups are measured in
// segment order — so the output is bit-identical at every shard count. A
// run that a filter split (anything but one complete canonical group) is
// measured right there by measureRun; no group spans two runs, because
// segments are PM-disjoint and every step has its own time.
type Meter struct {
	Noise NoiseProfile
	Seed  int64
	// Next receives the measured stream.
	Next sampling.Sink

	ins []*instruments // dense, indexed by PM arena ID
	shs []meterScratch // one per shard (grown, never shrunk)

	// Self-observability instruments (nil-safe no-ops until Instrument).
	groups       *obs.Counter
	groupSamples *obs.Histogram
	shardSteps   *obs.Counter
	shardsGauge  *obs.Gauge
}

// meterScratch is one shard's working storage of the tool emulation: the
// screen permutation, per-tool readings, a split run's guest rows and the
// measured output segment. Every shard owns its own, so shards measure
// concurrently without sharing.
type meterScratch struct {
	order    []int // sorted-name permutation
	gx       []DomainReading
	gt       []TopReading
	measured []units.Vector
	guests   []sampling.Sample // guest rows of a split run
	out      []sampling.Sample // measured-output segment
	_        [64]byte          // no cache line holds two shards' fields
}

// growSort refills sc.order with 0..n-1 and stable-insertion-sorts it by
// guest name — screen order. No closures, no allocation.
func (sc *meterScratch) growSort(guests []sampling.Sample) []int {
	n := len(guests)
	if cap(sc.order) < n {
		sc.order = make([]int, n)
	}
	order := sc.order[:n]
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && guests[order[j]].Domain < guests[order[j-1]].Domain; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// Instrument registers the meter's metrics: measured PM groups, the size
// of each measured group, and the step and shard-count instruments.
// A nil registry is a no-op.
func (m *Meter) Instrument(reg *obs.Registry) {
	m.groups = reg.Counter("meter_groups_total", "PM groups measured by the tool emulation")
	m.groupSamples = reg.Histogram("meter_group_samples", "samples per measured PM group batch")
	m.shardSteps = reg.Counter("meter_sharded_steps_total", "steps measured, each through the per-shard path")
	m.shardsGauge = reg.Gauge("meter_shards", "shard count of the last sharded metering step")
}

// instruments bundles one tool set per monitored PM.
type instruments struct {
	xentop   *Xentop
	top      *Top
	mpstat   *Mpstat
	vmstat   *Vmstat
	ifconfig *Ifconfig
}

// NewMeter builds a metering stage forwarding measured samples to next.
func NewMeter(noise NoiseProfile, seed int64, next sampling.Sink) *Meter {
	return &Meter{Noise: noise, Seed: seed, Next: next}
}

func (m *Meter) instrumentsFor(pmID int) *instruments {
	for pmID >= len(m.ins) {
		m.ins = append(m.ins, nil)
	}
	in := m.ins[pmID]
	if in == nil {
		base := m.Seed + int64(pmID)*1000
		in = &instruments{
			xentop:   NewXentop(m.Noise, base+1),
			top:      NewTop(m.Noise, base+2),
			mpstat:   NewMpstat(m.Noise, base+3),
			vmstat:   NewVmstat(m.Noise, base+4),
			ifconfig: NewIfconfig(m.Noise, base+5),
		}
		m.ins[pmID] = in
	}
	return in
}

// BeginStep implements sampling.Sink. Instrument and scratch tables are
// pre-sized here, on the stepping goroutine, so shards only ever touch
// disjoint entries.
func (m *Meter) BeginStep(shape sampling.StepShape) {
	for shape.MaxPMID >= len(m.ins) {
		m.ins = append(m.ins, nil)
	}
	for len(m.shs) < shape.Shards {
		m.shs = append(m.shs, meterScratch{})
	}
	for s := 0; s < shape.Shards; s++ {
		m.shs[s].out = m.shs[s].out[:0]
	}
	m.Next.BeginStep(shape)
	m.shardSteps.Inc()
	m.shardsGauge.Set(int64(shape.Shards))
}

// ConsumeShard implements sampling.Sink: the shard's segment is measured
// run by run into its own scratch and forwarded as one segment.
// Determinism needs no coordination — noise comes from per-PM instruments,
// and the segment's PMs belong to no other shard.
func (m *Meter) ConsumeShard(shard int, seg []sampling.Sample) {
	sc := &m.shs[shard]
	for len(seg) > 0 {
		run := pmRun(seg)
		if guests, ok := canonicalGroup(run); ok {
			n := len(guests)
			m.measureGroupInto(sc, guests, run[n], run[n+1], run[n+2])
		} else {
			m.measureRun(sc, run)
		}
		seg = seg[len(run):]
	}
	m.Next.ConsumeShard(shard, sc.out)
}

// FinishStep implements sampling.Sink: every shard was measured and
// forwarded in ConsumeShard, so the step only closes downstream.
func (m *Meter) FinishStep() { m.Next.FinishStep() }

// pmRun returns the longest prefix of the non-empty seg whose rows share
// the first row's PM and time: one PM group, or what a filter left of it.
func pmRun(seg []sampling.Sample) []sampling.Sample {
	pm, t := seg[0].PMID, seg[0].Time
	n := 1
	for n < len(seg) && seg[n].PMID == pm && seg[n].Time == t {
		n++
	}
	return seg[:n]
}

// canonicalGroup reports whether run, the rows of one PM and time, is
// exactly one complete group in emission order — guests, then Dom0,
// hypervisor and host rows — and returns its guest rows.
func canonicalGroup(run []sampling.Sample) (guests []sampling.Sample, ok bool) {
	n := len(run) - 3
	if n < 0 || run[n].Kind != sampling.KindDom0 || run[n+1].Kind != sampling.KindHypervisor ||
		run[n+2].Kind != sampling.KindHost {
		return nil, false
	}
	for i := range run[:n] {
		if run[i].Kind != sampling.KindGuest {
			return nil, false
		}
	}
	return run[:n], true
}

// measureRun measures a (PM, time) run that is not one canonical group.
// A Dom0 or hypervisor row a filter dropped reads as zero rather than as a
// neighbouring PM's, and is emitted labelled as its group's row (the
// group's time and PM, VMID -1, its own kind and domain). Each host row
// triggers one synchronized reading of the guest rows since the previous
// host row and the latest Dom0 and hypervisor rows; rows after the last
// host row are not measured.
func (m *Meter) measureRun(sc *meterScratch, run []sampling.Sample) {
	s := run[0]
	dom0 := sampling.Sample{Time: s.Time, PMID: s.PMID, PM: s.PM, VMID: -1,
		Domain: sampling.LabelDom0, Kind: sampling.KindDom0}
	hyp := sampling.Sample{Time: s.Time, PMID: s.PMID, PM: s.PM, VMID: -1,
		Domain: sampling.LabelHypervisor, Kind: sampling.KindHypervisor}
	guests := sc.guests[:0]
	for _, r := range run {
		switch r.Kind {
		case sampling.KindGuest:
			guests = append(guests, r)
		case sampling.KindDom0:
			dom0 = r
		case sampling.KindHypervisor:
			hyp = r
		case sampling.KindHost:
			m.measureGroupInto(sc, guests, dom0, hyp, r)
			guests = guests[:0]
		}
	}
	sc.guests = guests
}

// measureGroupInto runs the tools over one PM group and appends the
// measured samples (guests in arrival order, then Dom0, hypervisor, host)
// to sc.out. Safe to call concurrently for different PMs with different
// sc — all shared Meter state it touches is the pre-sized instrument table
// (disjoint per-PM entries) and the atomic obs instruments.
func (m *Meter) measureGroupInto(sc *meterScratch, guests []sampling.Sample, dom0, hyp, host sampling.Sample) {
	in := m.instrumentsFor(host.PMID)
	n := len(guests)

	// Noise draws happen per tool in screen order; guests appear on a
	// screen in sorted-name order regardless of arena order.
	order := sc.growSort(guests)
	if cap(sc.gx) < n {
		sc.gx = make([]DomainReading, n)
		sc.gt = make([]TopReading, n)
		sc.measured = make([]units.Vector, n)
	}
	gx, gt, measured := sc.gx[:n], sc.gt[:n], sc.measured[:n]

	// xentop screen: Dom0 row, then the guests.
	dom0x := in.xentop.ReadDomain(sampling.LabelDom0, dom0.Util)
	for _, i := range order {
		gx[i] = in.xentop.ReadDomain(guests[i].Domain, guests[i].Util)
	}
	// top inside each guest (its CPU reading is drawn but discarded — the
	// script keeps xentop's, as in the paper), then top in Dom0.
	for _, i := range order {
		gt[i] = in.top.Read(guests[i].Util)
	}
	dom0Mem := in.top.ReadMem(dom0.Util.Mem)
	hypCPU := in.mpstat.ReadCPU(hyp.Util.CPU)
	hostIO := in.vmstat.ReadIO(host.Util.IO)
	hostBW := in.ifconfig.ReadBW(host.Util.BW)

	// Indirect host CPU/memory: sum the measured domains (sorted-name
	// accumulation order keeps the sums bit-reproducible).
	var guestSum units.Vector
	for _, i := range order {
		measured[i] = units.V(gx[i].CPU, gt[i].Mem, gx[i].IO, gx[i].BW)
		guestSum = guestSum.Add(measured[i])
	}
	dom0V := units.V(dom0x.CPU, dom0Mem, dom0x.IO, dom0x.BW)

	out := sc.out
	base := len(out)
	for i := range guests {
		g := guests[i]
		g.Util = measured[i]
		out = append(out, g)
	}
	dom0.Util = dom0V
	out = append(out, dom0)
	hyp.Util = units.V(hypCPU, 0, 0, 0)
	out = append(out, hyp)
	host.Util = units.V(
		dom0V.CPU+hypCPU+guestSum.CPU,
		dom0V.Mem+guestSum.Mem,
		hostIO,
		hostBW,
	)
	out = append(out, host)
	sc.out = out
	m.groups.Inc()
	m.groupSamples.Observe(int64(len(out) - base))
}

// Collector assembles measured samples back into per-step Measurement rows
// — the bridge between the sample pipeline and the paper-style series API
// ([][]Measurement). A row is completed by its PM's host sample; rows are
// grouped into steps by sample time. It retains everything it sees, so its
// allocations grow with the series — long campaigns that only need
// summaries should use StreamAggregator instead. The steady-state cost per
// step is one map per PM (sized by the largest guest count seen) plus one
// row slice (sized by the widest row seen).
//
// Each shard assembles its own PMs' rows in one pass over its segment, in
// (PM, time) runs, and the merge concatenates them in shard order, which
// is PM order.
type Collector struct {
	series  [][]Measurement
	row     []Measurement
	curTime float64
	started bool

	guestHint int // largest VMs-per-row seen; pre-sizes the next map
	rowHint   int // widest completed row seen; pre-sizes the next row

	shs    []colShard
	shTime float64
}

// colShard is one shard's partial state of a collection step.
type colShard struct {
	rows []Measurement
	saw  bool     // shard delivered at least one sample
	maxG int      // largest guest count seen (folded into guestHint)
	_    [64]byte // no cache line holds two shards' fields
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// flushRow closes the current step's row into the series.
func (c *Collector) flushRow() {
	if n := len(c.row); n > c.rowHint {
		c.rowHint = n
	}
	c.series = append(c.series, c.row)
	c.row = nil
}

// BeginStep implements sampling.Sink.
func (c *Collector) BeginStep(shape sampling.StepShape) {
	for len(c.shs) < shape.Shards {
		c.shs = append(c.shs, colShard{})
	}
	c.shs = c.shs[:shape.Shards]
	c.shTime = shape.Time
	for s := range c.shs {
		sh := &c.shs[s]
		sh.rows = sh.rows[:0]
		sh.saw = false
	}
}

// ConsumeShard implements sampling.Sink: the shard's segment is assembled
// into per-shard rows in one pass, run by (PM, time) run. A Measurement
// opens at its group's first row: guest rows go into its map and the Dom0
// and hypervisor rows into their fields, and a host row closes it. A run
// without a host row yields none.
func (c *Collector) ConsumeShard(shard int, seg []sampling.Sample) {
	if len(seg) == 0 {
		return
	}
	sh := &c.shs[shard]
	sh.saw = true
	hint := c.guestHint // stable during the concurrent phase
	for len(seg) > 0 {
		run := pmRun(seg)
		seg = seg[len(run):]
		var m Measurement
		for _, s := range run {
			if m.VMs == nil {
				m = Measurement{Time: s.Time, PM: s.PM, VMs: make(map[string]units.Vector, hint)}
			}
			switch s.Kind {
			case sampling.KindGuest:
				m.VMs[s.Domain] = s.Util
				sh.maxG = max(sh.maxG, len(m.VMs))
			case sampling.KindDom0:
				m.Dom0 = s.Util
			case sampling.KindHypervisor:
				m.HypervisorCPU = s.Util.CPU
			case sampling.KindHost:
				m.Host = s.Util
				sh.rows = append(sh.rows, m)
				m.VMs = nil
			}
		}
	}
}

// FinishStep implements sampling.Sink: concatenates every shard's rows in
// shard order — PM order — into the step's row (the step-boundary flush
// happens only if the step delivered samples).
func (c *Collector) FinishStep() {
	any := false
	for s := range c.shs {
		any = any || c.shs[s].saw
	}
	if !any {
		return
	}
	if c.started && c.shTime != c.curTime {
		c.flushRow()
	}
	c.started = true
	c.curTime = c.shTime
	for s := range c.shs {
		sh := &c.shs[s]
		c.guestHint = max(c.guestHint, sh.maxG)
		if len(sh.rows) > 0 {
			if c.row == nil && c.rowHint > 0 {
				c.row = make([]Measurement, 0, c.rowHint)
			}
			c.row = append(c.row, sh.rows...)
		}
	}
}

// Series returns the collected per-sample series (outer index: sample,
// inner: PM in stream order), including the in-progress step if it has
// completed rows. It does not disturb ongoing collection.
func (c *Collector) Series() [][]Measurement {
	if len(c.row) == 0 {
		return c.series
	}
	out := make([][]Measurement, 0, len(c.series)+1)
	out = append(out, c.series...)
	out = append(out, c.row)
	return out
}

// Latest returns the most recent complete row of measurements (one per
// monitored PM), or nil if nothing has completed yet. Controllers poll
// this between Advance calls.
func (c *Collector) Latest() []Measurement {
	if len(c.row) > 0 {
		return c.row
	}
	if len(c.series) > 0 {
		return c.series[len(c.series)-1]
	}
	return nil
}

// Reset discards all collected state.
func (c *Collector) Reset() { *c = Collector{} }

// PushSeries replays a recorded series through a sink in the engine's
// emission order (per row: guests in sorted-name order, then Domain-0,
// hypervisor, host). Replayed samples carry VMID -1 (arena IDs are not
// recorded in a Measurement) and PMID set to the row position. Each row is
// one single-shard step (its batch reused across rows), so offline
// consumers — the trace writer, stat sinks — run the exact same pipeline
// stages that run live.
func PushSeries(series [][]Measurement, sink sampling.Sink) {
	var batch []sampling.Sample
	for _, row := range series {
		batch = batch[:0]
		shape := sampling.StepShape{Shards: 1, MaxPMID: len(row) - 1}
		for pmIdx, m := range row {
			shape.Time = m.Time
			for _, name := range m.GuestNames() {
				batch = append(batch, sampling.Sample{Time: m.Time, PMID: pmIdx, PM: m.PM,
					VMID: -1, Domain: name, Kind: sampling.KindGuest, Util: m.VMs[name]})
			}
			batch = append(batch, sampling.Sample{Time: m.Time, PMID: pmIdx, PM: m.PM,
				VMID: -1, Domain: sampling.LabelDom0, Kind: sampling.KindDom0, Util: m.Dom0})
			batch = append(batch, sampling.Sample{Time: m.Time, PMID: pmIdx, PM: m.PM,
				VMID: -1, Domain: sampling.LabelHypervisor, Kind: sampling.KindHypervisor,
				Util: units.V(m.HypervisorCPU, 0, 0, 0)})
			batch = append(batch, sampling.Sample{Time: m.Time, PMID: pmIdx, PM: m.PM,
				VMID: -1, Domain: sampling.LabelHost, Kind: sampling.KindHost, Util: m.Host})
		}
		sink.BeginStep(shape)
		sink.ConsumeShard(0, batch)
		sink.FinishStep()
	}
}
