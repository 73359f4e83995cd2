package xen

import (
	"fmt"
	"math"

	"virtover/internal/simrand"
)

// DatacenterSpec shapes a synthetic fleet for scale benchmarks and
// shard-determinism tests. The generated workloads are pure functions of
// simulation time (no per-call state), so a run over the fleet is
// reproducible and snapshot/restorable bit-for-bit.
type DatacenterSpec struct {
	PMs      int // physical machines (default 16)
	VMsPerPM int // guests per PM (default 8)

	// Seed randomizes per-VM workload phases and amplitudes. Fleets built
	// from equal specs are identical.
	Seed int64

	// FlowEvery attaches an outbound network flow to every k-th VM
	// (0 disables flows). Flows rotate deterministically between a
	// cross-PM neighbour, a co-located neighbour, and an external sink, so
	// the exchange phase sees all three routing classes.
	FlowEvery int
}

// withDefaults fills zero fields.
func (s DatacenterSpec) withDefaults() DatacenterSpec {
	if s.PMs <= 0 {
		s.PMs = 16
	}
	if s.VMsPerPM <= 0 {
		s.VMsPerPM = 8
	}
	return s
}

// BuildDatacenter generates a synthetic datacenter: spec.PMs hosts with
// spec.VMsPerPM single-VCPU guests each, driven by smooth diurnal-ish CPU
// curves with per-VM random phase, light memory and disk demand, and an
// optional sprinkling of network flows. Names are pm-%05d / vm-%06d.
//
// The topology exercises the engine's full resolution path — mixed load
// levels push some PMs into credit-scheduler saturation while most stay
// unsaturated — without any source allocating on the step path.
func BuildDatacenter(spec DatacenterSpec) *Cluster {
	spec = spec.withDefaults()
	rng := simrand.New(spec.Seed)
	cl := NewCluster()
	vmID := 0
	for p := 0; p < spec.PMs; p++ {
		pm := cl.AddPM(fmt.Sprintf("pm-%05d", p))
		pm.MemCapMB = 4096
		for v := 0; v < spec.VMsPerPM; v++ {
			name := fmt.Sprintf("vm-%06d", vmID)
			vm := cl.AddVM(pm, name, 512)

			base := rng.Uniform(10, 45) // resting CPU%
			swing := rng.Uniform(5, 40) // diurnal amplitude
			phase := rng.Uniform(0, 2*math.Pi)
			period := rng.Uniform(200, 2000) // seconds
			mem := rng.Uniform(32, 256)      // resident MB
			io := rng.Uniform(0, 60)         // blocks/s

			var flows []Flow
			if spec.FlowEvery > 0 && vmID%spec.FlowEvery == 0 {
				kbps := rng.Uniform(500, 4000)
				switch (vmID / spec.FlowEvery) % 3 {
				case 0: // cross-PM: same guest index on the next PM
					dst := (p+1)%spec.PMs*spec.VMsPerPM + v
					if dst != vmID {
						flows = []Flow{{DstVM: fmt.Sprintf("vm-%06d", dst), Kbps: kbps}}
					}
				case 1: // co-located neighbour
					if spec.VMsPerPM > 1 {
						dst := p*spec.VMsPerPM + (v+1)%spec.VMsPerPM
						flows = []Flow{{DstVM: fmt.Sprintf("vm-%06d", dst), Kbps: kbps}}
					}
				default: // external sink
					flows = []Flow{{Kbps: kbps}}
				}
			}

			omega := 2 * math.Pi / period
			vm.SetSource(SourceFunc(func(t float64) Demand {
				return Demand{
					CPU:      base + swing*math.Sin(omega*t+phase),
					MemMB:    mem,
					IOBlocks: io,
					Flows:    flows,
				}
			}))
			vmID++
		}
	}
	return cl
}
