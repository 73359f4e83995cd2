package cloudscale

import (
	"fmt"
	"sort"

	"virtover/internal/monitor"
	"virtover/internal/sampling"
	"virtover/internal/units"
)

// This file implements the migration use case the paper motivates in its
// introduction: "knowing the actual resource utilizations helps ...
// migrate VMs out of a PM to release load". The controller watches
// measured utilizations, estimates each PM's true load — overhead-aware
// (VOA) through the model, or naively (VOU) as the guest sum — and when a
// PM stays hot, recommends migrating its heaviest guest to the coldest PM
// that can absorb it. The detection/selection scheme follows Sandpiper
// (Wood et al., the paper's reference [5]).

// HotspotConfig tunes the controller.
type HotspotConfig struct {
	// Placer provides the estimation policy (VOA/VOU), the model and the
	// capacity vector.
	Placer Placer
	// TriggerFrac is the capacity fraction above which a PM is hot
	// (Sandpiper uses sustained thresholds around 0.75-0.9).
	TriggerFrac float64
	// SustainedIntervals is how many consecutive hot observations trigger
	// mitigation (Sandpiper's k-out-of-n guard against transients).
	SustainedIntervals int
}

// DefaultHotspotConfig returns Sandpiper-like settings.
func DefaultHotspotConfig(p Placer) HotspotConfig {
	return HotspotConfig{Placer: p, TriggerFrac: 0.9, SustainedIntervals: 3}
}

// Migration is one recommended action.
type Migration struct {
	VM       string
	From, To string
}

// HotspotController accumulates observations and emits migration
// recommendations. It is not safe for concurrent use.
type HotspotController struct {
	cfg HotspotConfig
	hot map[string]int // consecutive hot observations per PM
}

// NewHotspotController creates a controller. It validates the config.
func NewHotspotController(cfg HotspotConfig) (*HotspotController, error) {
	if cfg.TriggerFrac <= 0 || cfg.TriggerFrac > 1 {
		return nil, fmt.Errorf("cloudscale: TriggerFrac %v out of (0,1]", cfg.TriggerFrac)
	}
	if cfg.SustainedIntervals < 1 {
		return nil, fmt.Errorf("cloudscale: SustainedIntervals must be >= 1")
	}
	if cfg.Placer.Policy == VOA && cfg.Placer.Model == nil {
		return nil, fmt.Errorf("cloudscale: VOA hotspot controller needs a model")
	}
	return &HotspotController{cfg: cfg, hot: make(map[string]int)}, nil
}

// HotspotSink adapts the controller to the sample pipeline: attach it
// (behind a monitor.Meter) to the engine and it assembles the measured
// stream back into per-step rows. Sinks run synchronously inside the
// engine's step, where mutating the cluster is forbidden, so the sink only
// buffers; the control loop calls Drain between Advance calls to run the
// controller over every completed step and collect the recommended
// migrations.
type HotspotSink struct {
	ctl  *HotspotController
	col  monitor.Collector
	next int // first row of col.Series() not yet observed
}

// NewHotspotSink wraps an existing controller.
func NewHotspotSink(ctl *HotspotController) *HotspotSink {
	return &HotspotSink{ctl: ctl}
}

// BeginStep implements sampling.Sink by delegating to the wrapped
// collector: shards assemble their own PMs' rows in parallel and the
// merge keeps Series (and hence Drain) the same at every shard count.
func (h *HotspotSink) BeginStep(shape sampling.StepShape) { h.col.BeginStep(shape) }

// ConsumeShard implements sampling.Sink.
func (h *HotspotSink) ConsumeShard(shard int, seg []sampling.Sample) {
	h.col.ConsumeShard(shard, seg)
}

// FinishStep implements sampling.Sink.
func (h *HotspotSink) FinishStep() { h.col.FinishStep() }

// Drain runs the controller over every step completed since the previous
// Drain and returns the accumulated migration recommendations. Call it
// between engine Advance calls, apply the actions, and keep advancing.
func (h *HotspotSink) Drain() ([]Migration, error) {
	var out []Migration
	rows := h.col.Series()
	for ; h.next < len(rows); h.next++ {
		acts, err := h.ctl.Observe(rows[h.next])
		if err != nil {
			return out, err
		}
		out = append(out, acts...)
	}
	return out, nil
}

// estimate applies the placer's policy to a measured PM.
func (h *HotspotController) estimate(m monitor.Measurement) (units.Vector, error) {
	return h.cfg.Placer.Estimate(m.GuestList())
}

// isHot reports whether an estimated utilization crosses the trigger on
// any resource dimension.
func (h *HotspotController) isHot(est units.Vector) bool {
	capacity := h.cfg.Placer.Capacity
	trigger := capacity.Scale(h.cfg.TriggerFrac)
	return est.CPU > trigger.CPU || est.Mem > trigger.Mem ||
		est.IO > trigger.IO || est.BW > trigger.BW
}

// volume is Sandpiper's migration-candidate metric: the product of the
// guest's normalized utilizations (higher = relieves more load per
// migration byte). Memory is used as the "size" denominator by Sandpiper;
// we keep the volume alone since all experiment VMs are equal-sized.
func volume(v units.Vector, capacity units.Vector) float64 {
	norm := func(x, c float64) float64 {
		if c <= 0 {
			return 1
		}
		f := x / c
		if f > 0.999 {
			f = 0.999
		}
		return 1 / (1 - f)
	}
	return norm(v.CPU, capacity.CPU) * norm(v.Mem, capacity.Mem) *
		norm(v.IO, capacity.IO) * norm(v.BW, capacity.BW)
}

// Observe ingests one synchronized reading of every PM and returns the
// migrations to perform now (possibly none). The caller applies them and
// keeps observing; hot counters reset for PMs that emitted an action or
// cooled down.
func (h *HotspotController) Observe(ms []monitor.Measurement) ([]Migration, error) {
	// Estimate every PM first: destinations need them too.
	type pmState struct {
		m   monitor.Measurement
		est units.Vector
	}
	states := make([]pmState, len(ms))
	for i, m := range ms {
		est, err := h.estimate(m)
		if err != nil {
			return nil, err
		}
		states[i] = pmState{m: m, est: est}
	}

	var actions []Migration
	for _, st := range states {
		if !h.isHot(st.est) {
			h.hot[st.m.PM] = 0
			continue
		}
		h.hot[st.m.PM]++
		if h.hot[st.m.PM] < h.cfg.SustainedIntervals || len(st.m.VMs) == 0 {
			continue
		}
		// Candidate: the highest-volume guest.
		type cand struct {
			name string
			util units.Vector
			vol  float64
		}
		cands := make([]cand, 0, len(st.m.VMs))
		for name, v := range st.m.VMs {
			cands = append(cands, cand{name, v, volume(v, h.cfg.Placer.Capacity)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].vol != cands[b].vol {
				return cands[a].vol > cands[b].vol
			}
			return cands[a].name < cands[b].name // deterministic tie-break
		})
		// Destination: the coldest PM that can absorb the candidate under
		// the policy estimate.
		migrated := false
		for _, c := range cands {
			best := ""
			bestCPU := 0.0
			for _, dst := range states {
				if dst.m.PM == st.m.PM {
					continue
				}
				guests := append(dst.m.GuestList(), c.util)
				est, err := h.cfg.Placer.Estimate(guests)
				if err != nil {
					return nil, err
				}
				if !est.FitsWithin(h.cfg.Placer.Capacity.Scale(h.cfg.TriggerFrac)) {
					continue
				}
				if head := h.cfg.Placer.Capacity.CPU - est.CPU; best == "" || head > bestCPU {
					best, bestCPU = dst.m.PM, head
				}
			}
			if best != "" {
				actions = append(actions, Migration{VM: c.name, From: st.m.PM, To: best})
				h.hot[st.m.PM] = 0
				migrated = true
				break
			}
		}
		if !migrated {
			// No destination fits; keep the counter so the next reading
			// retries (Sandpiper defers when the cluster is globally hot).
			h.hot[st.m.PM] = h.cfg.SustainedIntervals
		}
	}
	return actions, nil
}
