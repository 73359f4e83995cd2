package exps

import (
	"fmt"

	"virtover/internal/cloudscale"
	"virtover/internal/core"
	"virtover/internal/sampling"
	"virtover/internal/simrand"
	"virtover/internal/units"
	"virtover/internal/xen"
)

// AdmissionResult summarizes the arrival-stream admission experiment: a
// sequence of VM requests arrives at one PM; the controller admits or
// refuses each; admitted guests run together on the simulated host. An
// "overload second" is a simulated second with the host CPU-saturated —
// exactly what admission control exists to prevent.
type AdmissionResult struct {
	Policy cloudscale.Policy
	// Offered and Admitted request counts.
	Offered, Admitted int
	// OverloadFrac is the fraction of measured seconds spent saturated.
	OverloadFrac float64
	// MeanPMCPU is the mean measured host CPU (utilization achieved).
	MeanPMCPU float64
}

// AdmissionConfig tunes the experiment.
type AdmissionConfig struct {
	// Arrivals is the number of VM requests (default 12).
	Arrivals int
	// DwellSeconds is how long the colony runs after each admission
	// decision before the next arrival (default 30).
	DwellSeconds int
	// Seed drives request sizes and the simulation.
	Seed int64
}

// AdmissionExperiment streams VM requests at one PM under both policies.
// VOU admits by guest sums and overloads the host; VOA accounts for Dom0
// and hypervisor overhead and stops earlier, keeping the host healthy at
// the cost of admitting fewer guests.
func AdmissionExperiment(model *core.Model, cfg AdmissionConfig) ([]AdmissionResult, error) {
	if model == nil {
		return nil, fmt.Errorf("exps: AdmissionExperiment needs a model")
	}
	if cfg.Arrivals <= 0 {
		cfg.Arrivals = 12
	}
	if cfg.DwellSeconds <= 0 {
		cfg.DwellSeconds = 30
	}
	out := make([]AdmissionResult, 0, 2)
	for _, policy := range []cloudscale.Policy{cloudscale.VOA, cloudscale.VOU} {
		r, err := runAdmissionOnce(model, cfg, policy)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func runAdmissionOnce(model *core.Model, cfg AdmissionConfig, policy cloudscale.Policy) (AdmissionResult, error) {
	calib := xen.DefaultCalibration()
	placer := cloudscale.Placer{
		Policy:   policy,
		Model:    model,
		Capacity: units.V(calib.TotalCapCPU, 2048, 5000, 1e6),
	}
	ctl, err := cloudscale.NewAdmissionController(placer, 0)
	if err != nil {
		return AdmissionResult{}, err
	}

	rng := simrand.New(cfg.Seed)
	cl := xen.NewCluster()
	pm := cl.AddPM("pm1")
	e := xen.NewEngine(cl, calib, cfg.Seed+1)
	defer e.Close()

	// Saturation accounting rides the engine's ground-truth sample stream:
	// a stat sink tracks the host-CPU mean, a filtered counter the
	// saturated seconds, both behind one Fanout attachment.
	hostCPU := sampling.NewStatSink(sampling.SelectKind(sampling.KindHost, units.CPU))
	var over sampling.Counter
	e.AttachSink(sampling.Fanout{
		hostCPU,
		&sampling.Filter{
			Keep: func(s sampling.Sample) bool {
				return s.Kind == sampling.KindHost && s.Util.CPU > calib.TotalCapCPU-3
			},
			Next: sampling.NewSerial(over.Count),
		},
	})

	res := AdmissionResult{Policy: policy}
	var resident []units.Vector

	for i := 0; i < cfg.Arrivals; i++ {
		// Request: a moderately loaded guest with some bandwidth.
		req := units.V(rng.Uniform(20, 45), rng.Uniform(100, 256), rng.Uniform(0, 15), rng.Uniform(50, 500))
		res.Offered++
		dec, err := ctl.Check(resident, req)
		if err != nil {
			return AdmissionResult{}, err
		}
		if dec.Admit {
			res.Admitted++
			resident = append(resident, req)
			vm := cl.AddVM(pm, fmt.Sprintf("vm%d", i+1), 512)
			d := xen.Demand{CPU: req.CPU, MemMB: req.Mem - calib.VMBaseMemMB, IOBlocks: req.IO,
				Flows: []xen.Flow{{Kbps: req.BW}}}
			vm.SetSource(xen.SourceFunc(func(float64) xen.Demand { return d }))
		}
		// Run the colony; the sinks account for saturated seconds.
		e.Advance(cfg.DwellSeconds)
	}
	if sum := hostCPU.Summary(); sum.N > 0 {
		res.OverloadFrac = float64(over.Total) / float64(sum.N)
		res.MeanPMCPU = sum.Mean
	}
	return res, nil
}
