package xen

import (
	"context"

	"virtover/internal/obs"
	"virtover/internal/sampling"
	"virtover/internal/simrand"
	"virtover/internal/units"
)

// Engine advances a Cluster through time in fixed steps, computing the
// ground-truth utilization of every VM, Dom0, hypervisor and PM from the
// attached workload demands and the Calibration's cost model.
//
// The step hot path is allocation-free at steady state: per-step working
// storage lives in struct-of-arrays columns indexed by guest slot (see
// layout), rebuilt only when the cluster topology changes. With
// EngineOptions.Shards > 1 the step fans the cluster's PMs across a
// persistent worker pool; the merge discipline (DESIGN.md §12) keeps the
// output bit-identical to the serial step at every shard count. After each
// step the engine pushes one sampling.Sample per domain into any attached
// sinks, in deterministic order (PMs in cluster order; within a PM the
// guests in arena order, then Domain-0, the hypervisor, and the host row).
type Engine struct {
	Cluster *Cluster
	Calib   Calibration
	Step    float64 // seconds per step

	now        float64
	rng        *simrand.Source
	shards     int
	migrations []*liveMigration
	sinks      []sampling.Sink
	lay        layout
	pool       *shardPool
	sc         scratch
	obs        engineMetrics

	// Wide-event telemetry (telemetry.go). All nil/zero — and fully
	// free — unless a journal or profiler is attached.
	jr       *obs.Journal
	prof     *obs.ShardProfiler
	jwin     int   // steps per journal "step" event
	stepIdx  int64 // steps run by this engine (journal join key)
	profPrev []int64
	jw       journalWindow
}

// engineMetrics holds the engine's self-observability instruments. All
// fields are nil until Instrument is called, and every instrument method is
// a no-op on nil, so the uninstrumented hot path pays only predictable nil
// checks — no allocations, no clock reads (the step timer is gated on
// reg.Enabled()). Counters and gauges are atomic, so shard workers may
// touch them concurrently (the saturation counter does).
type engineMetrics struct {
	reg           *obs.Registry // clock source; nil means disabled
	steps         *obs.Counter
	stepNanos     *obs.Histogram
	resolveNanos  *obs.Histogram
	batchSamples  *obs.Histogram
	dispatchNanos *obs.Histogram
	saturated     *obs.Counter
	migStarted    *obs.Counter
	migCompleted  *obs.Counter
	migActive     *obs.Gauge
	shards        *obs.Gauge
	rebuilds      *obs.Counter
	shardMax      *obs.Gauge
	shardMean     *obs.Gauge
	straggler     *obs.Gauge
}

// Instrument registers the engine's metrics in reg and turns on per-step
// self-profiling: step count and wall time, the demand+exchange+resolve
// span, emitted batch sizes, per-sink merge latency, credit-scheduler
// saturation events, live-migration progress, and the sharded layout's
// shape (active shard count, layout rebuilds). A nil registry leaves the
// engine uninstrumented (the default). Multiple engines may share one
// registry; their series accumulate.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.obs = engineMetrics{
		reg:           reg,
		steps:         reg.Counter("engine_steps_total", "simulation steps run"),
		stepNanos:     reg.Histogram("engine_step_nanos", "wall time per engine step"),
		resolveNanos:  reg.Histogram("engine_resolve_nanos", "wall time per step spent in demand/exchange/resolve phases"),
		batchSamples:  reg.Histogram("engine_batch_samples", "samples emitted per step batch"),
		dispatchNanos: reg.Histogram("engine_sink_dispatch_nanos", "wall time per sink FinishStep (the ordered per-step merge)"),
		saturated:     reg.Counter("engine_saturated_pm_steps_total", "PM-steps resolved under CPU saturation (water-fill)"),
		migStarted:    reg.Counter("engine_migrations_started_total", "live migrations begun"),
		migCompleted:  reg.Counter("engine_migrations_completed_total", "live migrations completed"),
		migActive:     reg.Gauge("engine_migrations_active", "in-flight live migrations"),
		shards:        reg.Gauge("engine_shards", "effective shard count of the stepping pool"),
		rebuilds:      reg.Counter("engine_layout_rebuilds_total", "SoA layout rebuilds (topology generation changes)"),
		shardMax:      reg.Gauge("engine_shard_max_step_nanos", "slowest shard's phase time in the last profiled step"),
		shardMean:     reg.Gauge("engine_shard_mean_step_nanos", "mean shard phase time in the last profiled step"),
		straggler:     reg.Gauge("engine_straggler_shard", "slowest shard id in the last profiled step"),
	}
}

// scratch holds the engine's per-step working storage, reused across steps.
// Every per-guest column is indexed by layout slot (PM-major order), so a
// shard's slots form one contiguous segment of each column and per-PM
// kernels work on sub-slices — no pointer chasing, no per-shard copies.
type scratch struct {
	// Demand columns, filled by phaseDemand.
	demCPU   []float64
	demMem   []float64
	demIO    []float64
	demFlows [][]Flow

	// Routed-flow columns, filled by phaseExchange.
	interOut []float64 // leaves the PM's NIC
	intraOut []float64 // short-circuits at the bridge
	inKbps   []float64 // arrives at this VM (either path)
	interIn  []float64 // arrives via the PM's NIC
	intraIn  []float64 // arrives via the local bridge

	// Resolution columns (per-PM kernels use [pmStart:pmEnd] sub-slices).
	vmIO    []float64
	vmBW    []float64
	cpuDem  []float64
	alloc   []float64
	fillIdx []int
	fillW   []float64

	// noise is the step's pre-drawn process noise (see predrawNoise).
	noise []float64

	// senders[s] lists shard s's slots with at least one outbound flow,
	// ascending; concatenated across shards they are ascending globally.
	senders [][]int32

	migLoads []migrationLoad
	batch    []sampling.Sample
}

// ensure grows the scratch columns to match the layout. Grow-only: steady
// state (and migrations between existing PMs) never reallocates.
func (s *scratch) ensure(l *layout, nPM int) {
	n := l.nGuests
	s.demCPU = growF64(s.demCPU, n)
	s.demMem = growF64(s.demMem, n)
	s.demIO = growF64(s.demIO, n)
	if cap(s.demFlows) < n {
		s.demFlows = make([][]Flow, n)
	}
	s.demFlows = s.demFlows[:n]
	s.interOut = growF64(s.interOut, n)
	s.intraOut = growF64(s.intraOut, n)
	s.inKbps = growF64(s.inKbps, n)
	s.interIn = growF64(s.interIn, n)
	s.intraIn = growF64(s.intraIn, n)
	s.vmIO = growF64(s.vmIO, n)
	s.vmBW = growF64(s.vmBW, n)
	s.cpuDem = growF64(s.cpuDem, n)
	s.alloc = growF64(s.alloc, n)
	if cap(s.fillIdx) < n {
		s.fillIdx = make([]int, n)
	}
	s.fillIdx = s.fillIdx[:n]
	s.fillW = growF64(s.fillW, n)
	if cap(s.noise) < l.nNoise {
		s.noise = make([]float64, l.nNoise)
	}
	s.noise = s.noise[:l.nNoise]
	if len(s.senders) < l.shards {
		old := s.senders
		s.senders = make([][]int32, l.shards)
		copy(s.senders, old)
	}
	if nPM > len(s.migLoads) {
		s.migLoads = make([]migrationLoad, nPM)
	}
	if cap(s.batch) < l.nBatch {
		s.batch = make([]sampling.Sample, 0, l.nBatch)
	}
}

// NewEngine creates an engine over cluster with 1-second steps (the paper's
// sampling interval) and the given seed for process noise. The shard count
// is the process default (SetDefaultShards; 1 unless raised).
func NewEngine(cluster *Cluster, calib Calibration, seed int64) *Engine {
	return NewEngineWithOptions(cluster, calib, seed, EngineOptions{Shards: DefaultShards()})
}

// NewEngineWithOptions creates an engine with explicit options. See
// EngineOptions; a zero Shards selects the serial step. The process-default
// run journal and shard-phase profiler (SetDefaultJournal/SetDefaultProfiler)
// are attached here, so engines built deep inside campaigns and fork builds
// report too.
func NewEngineWithOptions(cluster *Cluster, calib Calibration, seed int64, opts EngineOptions) *Engine {
	sh := opts.Shards
	if sh < 1 {
		sh = 1
	}
	e := &Engine{Cluster: cluster, Calib: calib, Step: 1.0, rng: simrand.New(seed), shards: sh}
	e.SetJournal(DefaultJournal())
	e.SetProfiler(DefaultProfiler())
	return e
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// AttachSink subscribes s to the engine's per-step sample stream. Sinks are
// invoked synchronously during every step and must not mutate the cluster
// topology; controllers buffer their actions and apply them between
// Advance calls.
//
// Delivery follows the sampling package's step contract at every shard
// count: BeginStep on the stepping goroutine, then each shard's worker
// hands its own PM range's segment of the step batch to the sink right
// after filling it (the shard that steps a PM also meters it), and
// FinishStep merges the per-shard partials in shard order — same bytes,
// parallel wall clock. A serial engine is the one-shard case. The batch
// is the engine's: sinks must not retain it across steps.
func (e *Engine) AttachSink(s sampling.Sink) {
	if s == nil {
		return
	}
	e.sinks = append(e.sinks, s)
}

// DetachSink unsubscribes a previously attached sink (compared by
// identity). Unknown sinks are ignored.
func (e *Engine) DetachSink(s sampling.Sink) {
	for i, k := range e.sinks {
		if k == s {
			e.sinks = append(e.sinks[:i], e.sinks[i+1:]...)
			return
		}
	}
}

// Advance runs n steps.
func (e *Engine) Advance(n int) {
	for i := 0; i < n; i++ {
		e.step()
	}
}

// AdvanceContext runs up to n steps, checking ctx before every step. When
// ctx is canceled (or its deadline expires) the engine stops within one
// step and returns ctx.Err() unwrapped, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) hold for callers all the way
// up the facade. Completed steps are not rolled back: the cluster, attached
// sinks and the engine clock reflect exactly the steps that ran. The check
// is one atomic load per step, so AdvanceContext with context.Background()
// costs the same as Advance and stays allocation-free.
func (e *Engine) AdvanceContext(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.step()
	}
	return nil
}

// ensureLayout rebuilds the SoA layout (and resizes the scratch columns
// and worker pool) when the cluster topology or the shard count changed
// since the last step. Steady state reduces to two integer compares.
func (e *Engine) ensureLayout() {
	cl := e.Cluster
	want := e.shards
	if want < 1 {
		want = 1
	}
	if n := len(cl.PMs); want > n {
		want = n
		if want < 1 {
			want = 1
		}
	}
	l := &e.lay
	if l.built && l.gen == cl.gen && l.shards == want {
		return
	}
	l.rebuild(cl, want)
	e.sc.ensure(l, len(cl.PMs))
	e.ensurePool(want)
	e.obs.rebuilds.Inc()
	e.obs.shards.Set(int64(want))
}

// predrawNoise fills the step's process-noise column from the master RNG.
// The serial engine drew jitter inside each PM's kernel, PM by PM; the
// draw count per PM is a pure function of its guest count (noiseDraws), so
// pre-drawing the same total in one flat sweep consumes the generator
// identically — the parallel kernels then index the column instead of
// touching the shared RNG, and traces stay bit-identical at every shard
// count. When the pool is running, this overlaps with the workers'
// demand phase (the caller pre-draws before taking its own shard 0 share).
func (e *Engine) predrawNoise() {
	if e.Calib.ProcessNoiseRel <= 0 {
		return
	}
	z := e.sc.noise
	for i := range z {
		z[i] = e.rng.NormFloat64()
	}
}

// noiseTap replays a PM's slice of the pre-drawn noise column in kernel
// order. jit matches simrand.Jitter exactly: x*(1 + rel*z) with one draw
// per call, or x unchanged (and no draw) when noise is off.
type noiseTap struct {
	z   []float64
	rel float64
	k   int
}

func (t *noiseTap) jit(x float64) float64 {
	if t.rel <= 0 {
		return x
	}
	x *= 1 + t.rel*t.z[t.k]
	t.k++
	return x
}

func (e *Engine) step() {
	instr := e.obs.reg.Enabled()
	var t0 int64
	if instr {
		t0 = e.obs.reg.Now()
	}
	jn := e.jr != nil
	var jt0 int64
	if jn {
		if e.jw.steps == 0 {
			e.jw.alloc0 = e.jr.AllocBytes()
		}
		jt0 = e.jr.Now()
	}
	e.ensureLayout()

	// Phases A (demand) and B+C (exchange + resolve), with a barrier
	// between: B reads every shard's demand columns. The caller always
	// executes shard 0, overlapping the serial noise pre-draw with the
	// workers' demand phase.
	if e.pool != nil {
		e.pool.begin(phaseDemand)
		e.predrawNoise()
		e.execPhase(0, phaseDemand)
		e.pool.wait()
		e.pool.begin(phaseResolve)
		e.execPhase(0, phaseResolve)
		e.pool.wait()
	} else {
		e.predrawNoise()
		e.execPhase(0, phaseDemand)
		e.execPhase(0, phaseResolve)
	}
	if instr {
		e.obs.resolveNanos.Observe(e.obs.reg.Now() - t0)
	}

	// Live migrations, serial in PM order. Copy traffic and Dom0 cost land
	// on this step's readings; a completed copy switches the guest for the
	// next step (pre-copy semantics: the guest runs on the source
	// throughout).
	if e.stepMigrations() {
		for _, pm := range e.Cluster.PMs {
			applyMigrationLoad(pm, e.sc.migLoads, e.Calib.PMBWCapKbps)
		}
	}
	e.now += e.Step

	if len(e.sinks) > 0 {
		// A migration completed this step moves its guest's row to the
		// destination PM, so re-derive the layout before slicing the batch.
		e.ensureLayout()
		e.sc.batch = e.sc.batch[:e.lay.nBatch]
		shape := sampling.StepShape{Shards: e.lay.shards, Time: e.now, MaxPMID: len(e.Cluster.PMs) - 1}
		for _, k := range e.sinks {
			k.BeginStep(shape)
		}
		if e.pool != nil {
			e.pool.begin(phaseEmit)
			e.execPhase(0, phaseEmit)
			e.pool.wait()
		} else {
			e.execPhase(0, phaseEmit)
		}
		e.finishSinks()
	}
	e.obs.steps.Inc()
	if instr {
		e.obs.stepNanos.Observe(e.obs.reg.Now() - t0)
	}
	e.stepIdx++
	if e.prof != nil {
		e.finishProfileStep(instr)
	}
	if jn {
		e.finishJournalStep(jt0)
	}
}

// phaseDemand refreshes shard s's mutable VM-config columns, samples each
// guest's workload demand into the demand columns, zeroes its routed-flow
// columns, and collects the shard's sender list. Writes only slots (and
// the sender list) owned by s.
func (e *Engine) phaseDemand(s int) {
	t := e.now
	l := &e.lay
	sc := &e.sc
	snd := sc.senders[s][:0]
	for g := l.slotLo[s]; g < l.slotHi[s]; g++ {
		vm := l.vms[g]
		l.vcpus[g] = int32(vm.VCPUs)
		l.weight[g] = vm.Weight
		l.capCPU[g] = vm.capCPU
		l.memCap[g] = vm.MemCapMB
		d := vm.source.Demand(t)
		sc.demCPU[g] = d.CPU
		sc.demMem[g] = d.MemMB
		sc.demIO[g] = d.IOBlocks
		sc.demFlows[g] = d.Flows
		sc.interOut[g] = 0
		sc.intraOut[g] = 0
		sc.inKbps[g] = 0
		sc.interIn[g] = 0
		sc.intraIn[g] = 0
		if len(d.Flows) > 0 {
			snd = append(snd, g)
		}
	}
	sc.senders[s] = snd
}

// phaseExchange routes network flows. Every shard scans the full sender
// population — all shards' sender lists in shard order, which is global
// slot order — but writes only the flow fields of its own slot range:
// sender-side fields when the source slot is local, receiver-side fields
// when the destination slot is. Each float cell is therefore accumulated
// by exactly one shard, in the same global sender order as the serial
// loop, which keeps every sum bit-identical regardless of shard count
// (floating-point addition is order-sensitive; the order never changes).
// The redundant classification work is O(total flows) per shard — cheap
// next to per-PM resolution, and the price of a barrier-free merge.
func (e *Engine) phaseExchange(s int) {
	l := &e.lay
	sc := &e.sc
	cl := e.Cluster
	lo, hi := l.slotLo[s], l.slotHi[s]
	for q := 0; q < l.shards; q++ {
		for _, src := range sc.senders[q] {
			srcPM := l.pmOf[src]
			mineSrc := src >= lo && src < hi
			for _, fl := range sc.demFlows[src] {
				if fl.Kbps <= 0 {
					continue
				}
				dst, ok := cl.LookupVM(fl.DstVM)
				if fl.DstVM == "" || !ok {
					// External destination: crosses the source PM's NIC only.
					if mineSrc {
						sc.interOut[src] += fl.Kbps
					}
					continue
				}
				ds := l.slotOf[dst.id]
				mineDst := ds >= lo && ds < hi
				if l.pmOf[ds] == srcPM {
					// Co-located: bridge short-circuit, no NIC bytes (Fig. 5a).
					if mineSrc {
						sc.intraOut[src] += fl.Kbps
					}
					if mineDst {
						sc.inKbps[ds] += fl.Kbps
						sc.intraIn[ds] += fl.Kbps
					}
				} else {
					// Cross-PM: both NICs carry the bytes.
					if mineSrc {
						sc.interOut[src] += fl.Kbps
					}
					if mineDst {
						sc.inKbps[ds] += fl.Kbps
						sc.interIn[ds] += fl.Kbps
					}
				}
			}
		}
	}
}

// phaseResolve runs the per-PM resolution kernel over shard s's PM range.
// It reads only shard-local flow and demand columns (its own phaseExchange
// output), so it needs no barrier after the exchange within a shard.
func (e *Engine) phaseResolve(s int) {
	l := &e.lay
	for p := l.shardLo[s]; p < l.shardHi[s]; p++ {
		e.resolvePM(int(p))
	}
}

// resolvePM computes one PM's ground-truth utilization from the demand and
// flow columns: the SoA port of the original per-PM step kernel,
// arithmetic and noise-draw order preserved expression for expression.
func (e *Engine) resolvePM(p int) {
	c := &e.Calib
	l := &e.lay
	sc := &e.sc
	pm := e.Cluster.PMs[p]
	var nt noiseTap
	if rel := c.ProcessNoiseRel; rel > 0 {
		nt = noiseTap{z: sc.noise[l.noiseOff[p]:], rel: rel}
	}
	s0, s1 := int(l.pmStart[p]), int(l.pmEnd[p])
	n := s1 - s0
	if n == 0 {
		pm.dom0Util = units.V(nt.jit(c.Dom0BaseCPU), c.Dom0MemMB, 0, 0)
		pm.hypCPU = nt.jit(c.HypBaseCPU)
		pm.pmUtil = units.V(pm.dom0Util.CPU+pm.hypCPU, c.Dom0MemMB,
			nt.jit(c.PMBaseIOBlocks), nt.jit(c.PMBaseBWKbps))
		return
	}

	// --- Disk path ---
	// Guest block throughput is capped by the virtual disk; physical blocks
	// are amplified by striping.
	vmIO := sc.vmIO[s0:s1]
	var totalGuestBlocks float64
	for i := 0; i < n; i++ {
		io := sc.demIO[s0+i]
		if sc.demMem[s0+i] > 0 {
			// lookbusy-mem pages lightly regardless of ladder level
			// (Section III-C: constant 18.8 blocks/s PM I/O in memory runs).
			io += c.MemIOBlocksBase
		}
		if io > c.VMIOCapBlocks {
			io = c.VMIOCapBlocks
		}
		if io < 0 {
			io = 0
		}
		vmIO[i] = io
		totalGuestBlocks += io
	}
	amp := c.DiskStripeAmp + c.DiskStripeAmpPerVM*float64(n-1)
	pmIO := c.PMBaseIOBlocks + amp*totalGuestBlocks

	// --- Network path ---
	var pmNICKbps float64 // bytes crossing the physical NIC
	var interKbps float64 // guest traffic priced at the NIC-path Dom0 rate
	var intraKbps float64 // guest traffic priced at the bridge-path rate
	var activeSenders int // VMs pushing traffic through the NIC
	vmBW := sc.vmBW[s0:s1]
	for i := 0; i < n; i++ {
		g := s0 + i
		vmBW[i] = sc.interOut[g] + sc.intraOut[g] + sc.inKbps[g]
		nic := sc.interOut[g] + sc.interIn[g]
		pmNICKbps += nic
		interKbps += nic
		// Intra-PM packets traverse the bridge exactly once, so Dom0 is
		// charged on the sender side only (Fig. 5b's 0.002 slope is per
		// stream Kb/s, not per endpoint).
		intraKbps += sc.intraOut[g]
		if sc.interOut[g] > 0 {
			activeSenders++
		}
	}
	pmBW := c.PMBaseBWKbps + pmNICKbps
	if pmNICKbps > 0 {
		pmBW += c.PMBWOverheadKbps
		if activeSenders > 1 {
			pmBW += c.PMBWOverheadFracPerVM * float64(activeSenders-1) * pmNICKbps
		}
	}
	if pmBW > c.PMBWCapKbps {
		pmBW = c.PMBWCapKbps
	}

	// --- Guest CPU demand ---
	// The workload target plus the front-end driver costs of I/O and
	// networking, plus the idle base.
	cpuDem := sc.cpuDem[s0:s1]
	weights := l.weight[s0:s1]
	var ctlCost, schedCost, vcpuCostDom0, vcpuCostHyp float64
	for i := 0; i < n; i++ {
		g := s0 + i
		vcpus := float64(l.vcpus[g])
		vmCap := c.VMCPUCap * vcpus
		in := sc.demCPU[g]
		if in < 0 {
			in = 0
		}
		if in > vmCap {
			in = vmCap
		}
		// Each guest contributes its own convex control-plane and
		// scheduling cost: event-channel notifications and preemptions grow
		// superlinearly with that guest's activity (Fig. 2a). The quadratic
		// is per VCPU: a 2-VCPU guest at 160% behaves like two VCPUs at 80%.
		perVCPU := in / vcpus
		ctlCost += vcpus * (c.Dom0CtlLin*perVCPU + c.Dom0CtlQuad*perVCPU*perVCPU)
		schedCost += vcpus * (c.HypSchedLin*perVCPU + c.HypSchedQuad*perVCPU*perVCPU)
		if extra := l.vcpus[g] - 1; extra > 0 {
			vcpuCostDom0 += c.Dom0PerVCPU * float64(extra)
			vcpuCostHyp += c.HypPerVCPU * float64(extra)
		}
		cpu := c.VMBaseCPU + in + c.VMCPUPerBlock*vmIO[i] + c.VMCPUPerKbps*vmBW[i]
		if cpu > vmCap {
			cpu = vmCap
		}
		// The credit-scheduler cap bounds the guest's allocation even on an
		// idle host (Xen's sched-credit cap; adjusted online by CloudScale's
		// elastic scaling).
		if cc := l.capCPU[g]; cc > 0 && cpu > cc {
			cpu = cc
		}
		cpuDem[i] = cpu
	}

	// --- Dom0 CPU demand ---
	// Per-guest control-plane cost; netback/bridge per Kb/s with the
	// intra-PM discount; block back-end per block/s; per-VM management.
	dom0Demand := c.Dom0BaseCPU +
		ctlCost +
		c.Dom0CPUPerKbps*interKbps +
		c.Dom0CPUPerKbpsIntra*intraKbps +
		c.Dom0CPUPerBlock*totalGuestBlocks +
		c.Dom0PerVM*float64(n-1) +
		vcpuCostDom0

	// --- Hypervisor CPU demand ---
	hypDemand := c.HypBaseCPU +
		schedCost +
		c.HypCPUPerKbps*(interKbps+intraKbps) +
		c.HypCPUPerBlock*totalGuestBlocks +
		c.HypPerVM*float64(n-1) +
		vcpuCostHyp

	// --- Contention resolution ---
	// When the PM is CPU-saturated the credit scheduler squeezes Dom0 and
	// the hypervisor to their saturation allocations (the 23.4% / 12.0%
	// plateaus of Section IV-B) and guests share the remaining pool
	// max-min-fairly.
	alloc := sc.alloc[s0:s1]
	var dom0CPU, hypCPU float64
	totalDemand := dom0Demand + hypDemand
	for _, d := range cpuDem {
		totalDemand += d
	}
	if totalDemand <= c.TotalCapCPU {
		copy(alloc, cpuDem)
		dom0CPU = dom0Demand
		hypCPU = hypDemand
	} else {
		e.obs.saturated.Inc()
		dom0CPU = dom0Demand
		if dom0CPU > c.Dom0SatCPU {
			dom0CPU = c.Dom0SatCPU
		}
		hypCPU = hypDemand
		if hypCPU > c.HypSatCPU {
			hypCPU = c.HypSatCPU
		}
		waterFillWeightedInto(alloc, cpuDem, weights,
			c.TotalCapCPU-dom0CPU-hypCPU, sc.fillIdx[s0:s1], sc.fillW[s0:s1])
	}

	// --- Memory ---
	var totalMem float64
	for i := 0; i < n; i++ {
		g := s0 + i
		mem := c.VMBaseMemMB + sc.demMem[g]
		if mem > l.memCap[g] {
			mem = l.memCap[g]
		}
		totalMem += mem
		l.vms[g].util = units.V(
			nt.jit(alloc[i]),
			nt.jit(mem),
			nt.jit(vmIO[i]),
			nt.jit(vmBW[i]),
		).ClampNonNegative()
	}

	pm.dom0Util = units.V(nt.jit(dom0CPU), nt.jit(c.Dom0MemMB), 0, 0).ClampNonNegative()
	pm.hypCPU = nt.jit(hypCPU)
	if pm.hypCPU < 0 {
		pm.hypCPU = 0
	}

	// PM CPU is reported as Dom0 + hypervisor + sum of guests, matching the
	// paper's indirect computation.
	var guestCPUSum float64
	for i := 0; i < n; i++ {
		guestCPUSum += l.vms[s0+i].util.CPU
	}
	pmMem := pm.dom0Util.Mem + totalMem
	if pmMem > pm.MemCapMB {
		pmMem = pm.MemCapMB
	}
	pm.pmUtil = units.V(
		pm.dom0Util.CPU+pm.hypCPU+guestCPUSum,
		pmMem,
		nt.jit(pmIO),
		nt.jit(pmBW),
	).ClampNonNegative()
}

// phaseEmit fills shard s's pre-sliced segment of the step batch (arena
// order: per PM the guests, then Domain-0, hypervisor, host). Segments are
// disjoint by construction, so shards write concurrently; the assembled
// batch is identical to the serial append order at any shard count. The
// worker then hands its freshly filled segment to every sink while the
// columns are still cache-hot — the affinity invariant: the shard that
// stepped a PM range also meters it.
func (e *Engine) phaseEmit(s int) {
	prof := e.prof
	var pt0 int64
	if prof != nil {
		pt0 = prof.Now()
	}
	t := e.now
	l := &e.lay
	b := e.sc.batch
	for p := l.shardLo[s]; p < l.shardHi[s]; p++ {
		pm := e.Cluster.PMs[p]
		off := int(l.batchOff[p])
		for g := l.pmStart[p]; g < l.pmEnd[p]; g++ {
			vm := l.vms[g]
			b[off] = sampling.Sample{Time: t, PMID: pm.id, PM: pm.Name,
				VMID: vm.id, Domain: vm.Name, Kind: sampling.KindGuest, Util: vm.util}
			off++
		}
		b[off] = sampling.Sample{Time: t, PMID: pm.id, PM: pm.Name, VMID: -1,
			Domain: sampling.LabelDom0, Kind: sampling.KindDom0, Util: pm.dom0Util}
		b[off+1] = sampling.Sample{Time: t, PMID: pm.id, PM: pm.Name, VMID: -1,
			Domain: sampling.LabelHypervisor, Kind: sampling.KindHypervisor,
			Util: units.V(pm.hypCPU, 0, 0, 0)}
		b[off+2] = sampling.Sample{Time: t, PMID: pm.id, PM: pm.Name, VMID: -1,
			Domain: sampling.LabelHost, Kind: sampling.KindHost, Util: pm.pmUtil}
	}
	if prof != nil {
		t1 := prof.Now()
		prof.Add(s, obs.PhaseEmit, t1-pt0)
		pt0 = t1
	}
	lo, hi := l.shardLo[s], l.shardHi[s]
	var seg []sampling.Sample
	if lo < hi {
		start := int(l.batchOff[lo])
		end := l.nBatch
		if int(hi) < len(l.batchOff) {
			end = int(l.batchOff[hi])
		}
		seg = b[start:end]
	}
	for _, k := range e.sinks {
		k.ConsumeShard(s, seg)
	}
	// The shard that steps a PM range also meters it, so the sink consume
	// above is the meter kernel's share of this shard's wall time.
	if prof != nil {
		prof.Add(s, obs.PhaseMeter, prof.Now()-pt0)
	}
}

// finishSinks closes the step on every sink, in attach order, on the
// stepping goroutine: each merges its per-shard partials.
func (e *Engine) finishSinks() {
	e.obs.batchSamples.Observe(int64(len(e.sc.batch)))
	if !e.obs.reg.Enabled() {
		for _, k := range e.sinks {
			k.FinishStep()
		}
		return
	}
	for _, k := range e.sinks {
		d0 := e.obs.reg.Now()
		k.FinishStep()
		e.obs.dispatchNanos.Observe(e.obs.reg.Now() - d0)
	}
}
