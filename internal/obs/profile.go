package obs

import "sync/atomic"

// The engine's per-step shard phases, in execution order. Demand and the
// exchange/resolve pair run on the shard workers; emit is the batch fill
// and meter the sinks' per-shard consume (the meter kernel) that follow it.
const (
	PhaseDemand = iota
	PhaseExchange
	PhaseResolve
	PhaseEmit
	PhaseMeter
	NumPhases
)

// PhaseNames maps the Phase* indices to display names.
var PhaseNames = [NumPhases]string{"demand", "exchange", "resolve", "emit", "meter"}

// MaxProfiledShards bounds the profiler's fixed row table. Rows are
// preallocated so concurrent writers never race a growth reallocation;
// shards past the bound fold into the last row.
const MaxProfiledShards = 64

// ShardProfiler accumulates per-shard, per-phase nanosecond totals for
// the engine's step pipeline. Each row is written only by the worker that
// owns the shard during a phase (plus the stepping goroutine for shard 0
// and the serial path), but rows are atomics so a profiler may be shared
// by several engines and read at any time. The row stride is padded to a
// cache line so neighboring shard workers do not false-share.
//
// A nil *ShardProfiler is the disabled state: Add and StepDone are no-ops
// and the engine's phase code skips its clock reads entirely, so profiling
// off costs one nil check per phase.
type ShardProfiler struct {
	clock Clock
	steps atomic.Int64
	rows  [MaxProfiledShards]profRow
}

// profRow is one shard's phase totals, padded to a 64-byte stride.
type profRow struct {
	phase [NumPhases]atomic.Int64
	_     [64 - (NumPhases*8)%64]byte
}

// NewShardProfiler builds a profiler reading the real monotonic clock,
// or c when non-nil (tests inject a constant to normalize timings).
func NewShardProfiler(c Clock) *ShardProfiler {
	if c == nil {
		c = realClock()
	}
	return &ShardProfiler{clock: c}
}

// Now returns the profiler's clock reading, or 0 when disabled.
func (p *ShardProfiler) Now() int64 {
	if p == nil {
		return 0
	}
	return p.clock()
}

// Add accumulates d nanoseconds into shard s's phase total.
func (p *ShardProfiler) Add(s, phase int, d int64) {
	if p == nil {
		return
	}
	if s < 0 {
		s = 0
	} else if s >= MaxProfiledShards {
		s = MaxProfiledShards - 1
	}
	p.rows[s].phase[phase].Add(d)
}

// StepDone counts one completed engine step (the denominator for
// per-step means in the profile report).
func (p *ShardProfiler) StepDone() {
	if p != nil {
		p.steps.Add(1)
	}
}

// ShardNanos returns shard s's total across all phases.
func (p *ShardProfiler) ShardNanos(s int) int64 {
	if p == nil || s < 0 || s >= MaxProfiledShards {
		return 0
	}
	var t int64
	for ph := range p.rows[s].phase {
		t += p.rows[s].phase[ph].Load()
	}
	return t
}

// PhaseProfile is a point-in-time copy of the profiler's totals: Nanos is
// indexed [shard][phase], trimmed to the highest shard that recorded
// anything.
type PhaseProfile struct {
	Steps int64
	Nanos [][NumPhases]int64
}

// Snapshot copies the accumulated totals. A nil profiler yields an empty
// profile.
func (p *ShardProfiler) Snapshot() PhaseProfile {
	var pp PhaseProfile
	if p == nil {
		return pp
	}
	pp.Steps = p.steps.Load()
	last := -1
	var rows [MaxProfiledShards][NumPhases]int64
	for s := 0; s < MaxProfiledShards; s++ {
		any := false
		for ph := 0; ph < NumPhases; ph++ {
			v := p.rows[s].phase[ph].Load()
			rows[s][ph] = v
			any = any || v != 0
		}
		if any {
			last = s
		}
	}
	pp.Nanos = append(pp.Nanos, rows[:last+1]...)
	return pp
}

// ShardTotal returns shard s's total across phases.
func (pp PhaseProfile) ShardTotal(s int) int64 {
	if s < 0 || s >= len(pp.Nanos) {
		return 0
	}
	var t int64
	for _, v := range pp.Nanos[s] {
		t += v
	}
	return t
}

// Straggler identifies the slowest shard: its id, its total, and the mean
// shard total. Imbalance is max/mean; a well-balanced run sits near 1.
func (pp PhaseProfile) Straggler() (shard int, max, mean int64) {
	n := len(pp.Nanos)
	if n == 0 {
		return 0, 0, 0
	}
	var sum int64
	for s := 0; s < n; s++ {
		t := pp.ShardTotal(s)
		sum += t
		if t > max {
			max, shard = t, s
		}
	}
	return shard, max, sum / int64(n)
}
