package xen

import (
	"sync/atomic"

	"virtover/internal/obs"
)

// The engine's wide-event telemetry wiring: a process-default journal and
// shard-phase profiler picked up at engine construction (mirroring
// SetDefaultShards), per-engine setters, the profiled phase dispatcher the
// step and the worker pool share, and the per-step bookkeeping that turns
// raw phase timings into imbalance gauges and step-window journal events.
//
// The hard invariant is that none of this perturbs simulation output:
// timing capture reads clocks and atomics, never the RNG or the cluster,
// so golden traces stay byte-identical with journaling and profiling on
// (pinned by TestJournalDoesNotPerturb in internal/monitor).

var (
	defaultJournal  atomic.Pointer[obs.Journal]
	defaultProfiler atomic.Pointer[obs.ShardProfiler]
)

// SetDefaultJournal sets the journal NewEngine wires into new engines
// (nil detaches). Existing engines are unaffected; use
// (*Engine).SetJournal for those.
func SetDefaultJournal(j *obs.Journal) { defaultJournal.Store(j) }

// DefaultJournal returns the process-wide default run journal (nil when
// journaling is off).
func DefaultJournal() *obs.Journal { return defaultJournal.Load() }

// SetDefaultProfiler sets the shard-phase profiler NewEngine wires into
// new engines (nil detaches).
func SetDefaultProfiler(p *obs.ShardProfiler) { defaultProfiler.Store(p) }

// DefaultProfiler returns the process-wide default shard-phase profiler.
func DefaultProfiler() *obs.ShardProfiler { return defaultProfiler.Load() }

// SetJournal attaches j to the engine: every StepWindow() steps the engine
// emits one "step" event carrying the step index, simulated time, wall
// time, samples emitted, process alloc delta and — when a profiler is also
// attached — the window's straggler shard. Nil detaches and restores the
// zero-cost path. A partially accumulated window is flushed to the old
// journal before the swap, and Close flushes the tail too, so runs
// shorter than one window still journal their steps.
func (e *Engine) SetJournal(j *obs.Journal) {
	e.flushJournalWindow()
	e.jr = j
	e.jwin = j.StepWindow()
	if e.jwin < 1 {
		e.jwin = 1
	}
	e.jw = journalWindow{shard: e.jw.shard}
}

// SetProfiler attaches p: the step's demand/exchange/resolve/emit phases
// and the meter kernel (the sinks' per-shard consume) are timed per shard
// into p, and the per-step imbalance gauges update when the engine is also
// instrumented. Nil detaches.
func (e *Engine) SetProfiler(p *obs.ShardProfiler) { e.prof = p }

// journalWindow accumulates one step-window between journal events.
type journalWindow struct {
	steps   int
	dur     int64
	samples int
	alloc0  int64
	shard   []int64 // per-shard nanos accumulated across the window
}

// execPhase runs one shard's share of a step phase, timing it into the
// profiler when one is attached. It is the single dispatch point shared by
// the pool workers, the stepping goroutine's shard-0 share, and the serial
// step, so every path is profiled identically. The exchange+resolve pair
// rides one wakeup but is timed as two phases.
func (e *Engine) execPhase(s, phase int) {
	p := e.prof
	switch phase {
	case phaseDemand:
		if p == nil {
			e.phaseDemand(s)
			return
		}
		t0 := p.Now()
		e.phaseDemand(s)
		p.Add(s, obs.PhaseDemand, p.Now()-t0)
	case phaseResolve:
		if p == nil {
			e.phaseExchange(s)
			e.phaseResolve(s)
			return
		}
		t0 := p.Now()
		e.phaseExchange(s)
		t1 := p.Now()
		p.Add(s, obs.PhaseExchange, t1-t0)
		e.phaseResolve(s)
		p.Add(s, obs.PhaseResolve, p.Now()-t1)
	case phaseEmit:
		e.phaseEmit(s)
	}
}

// finishProfileStep closes one step's profile: per-shard deltas since the
// last step feed the window accumulator and, when instrumented, the
// imbalance gauges (max/mean shard nanos, straggler id). Runs on the
// stepping goroutine after the last phase barrier, so the workers' Add
// calls happen-before these reads.
func (e *Engine) finishProfileStep(instr bool) {
	p := e.prof
	eff := e.lay.shards
	if eff < 1 {
		eff = 1
	}
	for len(e.profPrev) < eff {
		e.profPrev = append(e.profPrev, 0)
	}
	for len(e.jw.shard) < eff {
		e.jw.shard = append(e.jw.shard, 0)
	}
	var max, sum int64
	arg := 0
	for s := 0; s < eff; s++ {
		tot := p.ShardNanos(s)
		d := tot - e.profPrev[s]
		e.profPrev[s] = tot
		e.jw.shard[s] += d
		sum += d
		if d > max {
			max, arg = d, s
		}
	}
	p.StepDone()
	if instr {
		e.obs.shardMax.Set(max)
		e.obs.shardMean.Set(sum / int64(eff))
		e.obs.straggler.Set(int64(arg))
	}
}

// finishJournalStep folds one step into the current window and emits the
// window's wide event when it fills. jt0 is the journal-clock reading
// taken at step entry.
func (e *Engine) finishJournalStep(jt0 int64) {
	e.jw.dur += e.jr.Now() - jt0
	e.jw.steps++
	if len(e.sinks) > 0 {
		e.jw.samples += e.lay.nBatch
	}
	if e.jw.steps < e.jwin {
		return
	}
	e.emitJournalWindow()
}

// flushJournalWindow emits a partially accumulated step window, if any.
// Called from Close and SetJournal so the tail of a run — or all of a run
// shorter than one window — reaches the journal instead of being dropped.
func (e *Engine) flushJournalWindow() {
	if e.jr == nil || e.jw.steps == 0 {
		return
	}
	e.emitJournalWindow()
}

// emitJournalWindow emits the accumulated window as one "step" event and
// resets the accumulator (keeping the per-shard scratch).
func (e *Engine) emitJournalWindow() {
	ev := obs.Event{
		Type:       "step",
		Step:       e.stepIdx,
		Steps:      e.jw.steps,
		SimTime:    e.now,
		DurNanos:   e.jw.dur,
		Samples:    e.jw.samples,
		AllocBytes: e.jr.AllocBytes() - e.jw.alloc0,
	}
	if e.prof != nil {
		if eff := e.lay.shards; eff >= 1 && len(e.jw.shard) >= eff {
			var max, sum int64
			arg := 0
			for s := 0; s < eff; s++ {
				d := e.jw.shard[s]
				sum += d
				if d > max {
					max, arg = d, s
				}
				e.jw.shard[s] = 0
			}
			ev.MaxShardNanos = max
			ev.MeanShardNanos = sum / int64(eff)
			ev.Straggler = arg
		}
	}
	e.jr.Emit(&ev)
	e.jw = journalWindow{shard: e.jw.shard}
}

// SetJournal attaches j to the fork cache: every GetOrBuild emits one
// "fork" event with the prefix key and its disposition — hit, coalesced
// (joined an in-flight build), or build with the build's duration, alloc
// delta and error. Nil detaches.
func (c *ForkCache) SetJournal(j *obs.Journal) {
	c.mu.Lock()
	c.jr = j
	c.mu.Unlock()
}

// journal returns the cache's journal under its own lock.
func (c *ForkCache) journal() *obs.Journal {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jr
}
