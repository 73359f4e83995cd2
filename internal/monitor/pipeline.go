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
// Each shard's segment is measured on the goroutine that delivered it —
// for a sharded engine, the worker that stepped those PMs (DESIGN.md §13).
// This is deterministic by construction — each PM's noise streams come
// from its own instruments, a PM belongs to exactly one shard per step,
// and within a shard groups are measured in segment order — so the output
// is bit-identical at every shard count. A segment that is not a run of
// complete canonical groups (a filter split a PM group) is deferred whole
// to FinishStep, where the scalar state machine replays it in shard order;
// so is every segment of a step that begins with a partial group buffered.
type Meter struct {
	Noise NoiseProfile
	Seed  int64
	// Next receives the measured stream.
	Next sampling.Sink

	ins []*instruments // dense, indexed by PM arena ID

	// The scalar state machine's in-flight (PM, step) group, fed only by
	// deferred-segment replays.
	guests  []sampling.Sample
	dom0    sampling.Sample
	hyp     sampling.Sample
	curPM   int
	curTime float64
	started bool
	open    bool // a partial group is buffered

	shs    []meterScratch // one per shard (grown, never shrunk)
	shards int            // shard count of the in-flight step
	replay bool           // a partial group was open at BeginStep: defer every segment

	// Self-observability instruments (nil-safe no-ops until Instrument).
	groups       *obs.Counter
	groupSamples *obs.Histogram
	shardSteps   *obs.Counter
	deferredSegs *obs.Counter
	shardsGauge  *obs.Gauge
}

// meterScratch is one shard's working storage of the tool emulation: the
// screen permutation, per-tool readings, the measured output segment and
// the segment deferred to FinishStep, if any. Every shard owns its own, so
// shards measure concurrently without sharing.
type meterScratch struct {
	order    []int // sorted-name permutation
	gx       []DomainReading
	gt       []TopReading
	measured []units.Vector
	out      []sampling.Sample // measured-output segment
	def      []sampling.Sample // deferred input segment
	deferred bool
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
// of each measured group, and the step/deferral counters.
// A nil registry is a no-op.
func (m *Meter) Instrument(reg *obs.Registry) {
	m.groups = reg.Counter("meter_groups_total", "PM groups measured by the tool emulation")
	m.groupSamples = reg.Histogram("meter_group_samples", "samples per measured PM group batch")
	m.shardSteps = reg.Counter("meter_sharded_steps_total", "steps measured, each through the per-shard path")
	m.deferredSegs = reg.Counter("meter_deferred_segments_total", "shard segments with irregular grouping deferred to the serial merge")
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

// consume is the scalar state machine that replays deferred segments:
// guests, Dom0 and hypervisor samples are buffered, and the group's host
// sample triggers the synchronized multi-tool reading into sc. A group
// starts clean, so a Dom0 or hypervisor row a filter dropped reads as zero
// rather than as a neighbouring PM's, and is emitted labelled as its
// group's row (the group's time and PM, VMID -1, its own kind and domain).
func (m *Meter) consume(s sampling.Sample, sc *meterScratch) {
	if !m.started || s.PMID != m.curPM || s.Time != m.curTime {
		m.started = true
		m.curPM, m.curTime = s.PMID, s.Time
		m.guests = m.guests[:0]
		m.dom0 = sampling.Sample{Time: s.Time, PMID: s.PMID, PM: s.PM, VMID: -1,
			Domain: sampling.LabelDom0, Kind: sampling.KindDom0}
		m.hyp = sampling.Sample{Time: s.Time, PMID: s.PMID, PM: s.PM, VMID: -1,
			Domain: sampling.LabelHypervisor, Kind: sampling.KindHypervisor}
		m.open = false
	}
	switch s.Kind {
	case sampling.KindGuest:
		m.guests = append(m.guests, s)
		m.open = true
	case sampling.KindDom0:
		m.dom0 = s
		m.open = true
	case sampling.KindHypervisor:
		m.hyp = s
		m.open = true
	case sampling.KindHost:
		m.measureGroupInto(sc, m.guests, m.dom0, m.hyp, s)
		m.guests = m.guests[:0]
		m.open = false
	}
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
	m.shards = shape.Shards
	m.replay = m.open
	for s := 0; s < shape.Shards; s++ {
		m.shs[s].out = m.shs[s].out[:0]
	}
	m.Next.BeginStep(shape)
	m.shardSteps.Inc()
	m.shardsGauge.Set(int64(shape.Shards))
}

// ConsumeShard implements sampling.Sink: the shard's PM groups are measured
// into its own scratch and forwarded as one segment. Determinism needs no
// coordination — noise comes from per-PM instruments, and the segment's
// PMs belong to no other shard. Irregular segments wait for FinishStep.
func (m *Meter) ConsumeShard(shard int, seg []sampling.Sample) {
	sc := &m.shs[shard]
	if m.replay || !canonicalSegment(seg) {
		sc.def, sc.deferred = seg, true
		return
	}
	for i := 0; i < len(seg); {
		guests, adv, _ := scanGroup(seg[i:])
		g := seg[i:]
		m.measureGroupInto(sc, guests, g[len(guests)], g[len(guests)+1], g[len(guests)+2])
		i += adv
	}
	m.Next.ConsumeShard(shard, sc.out)
}

// FinishStep implements sampling.Sink: deferred segments replay through the
// scalar machine in ascending shard order (drawing the exact same per-PM
// noise sequences the per-shard path would have) and are forwarded, then
// the step closes downstream.
func (m *Meter) FinishStep() {
	for s := 0; s < m.shards; s++ {
		sc := &m.shs[s]
		if !sc.deferred {
			continue
		}
		m.deferredSegs.Inc()
		for i := range sc.def {
			m.consume(sc.def[i], sc)
		}
		m.Next.ConsumeShard(s, sc.out)
		sc.def, sc.deferred = nil, false
	}
	m.Next.FinishStep()
}

// scanGroup checks whether b starts with one complete PM group in
// canonical emission order: zero or more guests, then Dom0, hypervisor and
// host rows, all sharing PMID and Time. It returns the guest sub-slice and
// the number of samples consumed.
func scanGroup(b []sampling.Sample) (guests []sampling.Sample, adv int, ok bool) {
	pm, t := b[0].PMID, b[0].Time
	n := 0
	for n < len(b) && b[n].Kind == sampling.KindGuest && b[n].PMID == pm && b[n].Time == t {
		n++
	}
	if n+3 > len(b) {
		return nil, 0, false
	}
	if b[n].Kind != sampling.KindDom0 || b[n+1].Kind != sampling.KindHypervisor ||
		b[n+2].Kind != sampling.KindHost {
		return nil, 0, false
	}
	for k := n; k < n+3; k++ {
		if b[k].PMID != pm || b[k].Time != t {
			return nil, 0, false
		}
	}
	return b[:n], n + 3, true
}

// canonicalSegment reports whether seg is exactly a run of complete
// canonical PM groups — the shape a shard's batch segment has when no
// filter split a group. An empty segment is canonical.
func canonicalSegment(seg []sampling.Sample) bool {
	i := 0
	for i < len(seg) {
		_, adv, ok := scanGroup(seg[i:])
		if !ok {
			return false
		}
		i += adv
	}
	return true
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
// Shards assemble their own PMs' rows in parallel and the merge
// concatenates them in shard order, which is PM order. Irregular segments
// (and every segment of a step that begins with a partial row buffered)
// replay through the scalar state machine at the merge.
type Collector struct {
	series  [][]Measurement
	row     []Measurement
	cur     Measurement
	curPM   int // PMID of the open group
	open    bool
	curTime float64
	started bool

	guestHint int // largest VMs-per-row seen; pre-sizes the next map
	rowHint   int // widest completed row seen; pre-sizes the next row

	shs    []colShard
	shTime float64
	replay bool // a partial row was open at BeginStep: defer every segment
}

// colShard is one shard's partial state of a collection step.
type colShard struct {
	rows []Measurement
	def  []sampling.Sample // deferred irregular segment
	saw  bool              // shard delivered at least one sample
	maxG int               // largest guest count seen (folded into guestHint)
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

// consume is the scalar state machine that replays deferred segments. A
// sample of another PM or time starts a new group, as in the Meter's
// replay; a group that ends without its host row yields no Measurement.
func (c *Collector) consume(s sampling.Sample) {
	if c.started && s.Time != c.curTime {
		c.flushRow()
	}
	c.started = true
	c.curTime = s.Time
	if !c.open || s.PMID != c.curPM || s.Time != c.cur.Time {
		c.cur = Measurement{Time: s.Time, PM: s.PM, VMs: make(map[string]units.Vector, c.guestHint)}
		c.curPM = s.PMID
		c.open = true
	}
	switch s.Kind {
	case sampling.KindGuest:
		c.cur.VMs[s.Domain] = s.Util
		if n := len(c.cur.VMs); n > c.guestHint {
			c.guestHint = n
		}
	case sampling.KindDom0:
		c.cur.Dom0 = s.Util
	case sampling.KindHypervisor:
		c.cur.HypervisorCPU = s.Util.CPU
	case sampling.KindHost:
		c.cur.Host = s.Util
		if c.row == nil && c.rowHint > 0 {
			c.row = make([]Measurement, 0, c.rowHint)
		}
		c.row = append(c.row, c.cur)
		c.open = false
	}
}

// BeginStep implements sampling.Sink.
func (c *Collector) BeginStep(shape sampling.StepShape) {
	for len(c.shs) < shape.Shards {
		c.shs = append(c.shs, colShard{})
	}
	c.shs = c.shs[:shape.Shards]
	c.shTime = shape.Time
	c.replay = c.open
	for s := range c.shs {
		sh := &c.shs[s]
		sh.rows = sh.rows[:0]
		sh.def = nil
		sh.saw = false
	}
}

// ConsumeShard implements sampling.Sink: the shard's complete PM groups
// are assembled into per-shard rows. Irregular segments are deferred whole
// to the merge.
func (c *Collector) ConsumeShard(shard int, seg []sampling.Sample) {
	if len(seg) == 0 {
		return
	}
	sh := &c.shs[shard]
	sh.saw = true
	if c.replay || !canonicalSegment(seg) {
		sh.def = seg
		return
	}
	hint := c.guestHint // stable during the concurrent phase
	for i := 0; i < len(seg); {
		guests, adv, _ := scanGroup(seg[i:])
		g := seg[i:]
		m := Measurement{Time: g[0].Time, PM: g[0].PM,
			VMs: make(map[string]units.Vector, hint)}
		for k := range guests {
			m.VMs[guests[k].Domain] = guests[k].Util
		}
		m.Dom0 = g[len(guests)].Util
		m.HypervisorCPU = g[len(guests)+1].Util.CPU
		m.Host = g[len(guests)+2].Util
		if len(guests) > sh.maxG {
			sh.maxG = len(guests)
		}
		sh.rows = append(sh.rows, m)
		i += adv
	}
}

// FinishStep implements sampling.Sink: replays deferred segments through
// the scalar machine and concatenates every shard's rows in shard order —
// PM order — into the step's row (the step-boundary flush happens only if
// the step delivered samples).
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
		if sh.maxG > c.guestHint {
			c.guestHint = sh.maxG
		}
		if sh.def != nil {
			// Replay through the scalar machine with the step row swapped
			// for the shard's rows, so replayed rows land in shard order.
			save := c.row
			c.row = sh.rows
			for i := range sh.def {
				c.consume(sh.def[i])
			}
			sh.rows, c.row = c.row, save
			sh.def = nil
		}
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
