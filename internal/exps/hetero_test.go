package exps

import (
	"math"
	"testing"

	"virtover/internal/core"
)

func TestRunHeteroValidation(t *testing.T) {
	if _, err := RunHetero(HeteroScenario{}); err == nil {
		t.Error("no guests should fail")
	}
}

func TestRunHeteroBasics(t *testing.T) {
	ss, err := RunHetero(HeteroScenario{VCPUs: []int{2, 1}, CPUFrac: 0.3, BWMbps: 0.1, Samples: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 15 {
		t.Fatalf("samples = %d, want 15", len(ss))
	}
	for _, s := range ss {
		if s.N != 2 {
			t.Fatalf("N = %d, want 2", s.N)
		}
		if s.ExtraVCPUs != 1 {
			t.Fatalf("ExtraVCPUs = %d, want 1 (one 2-VCPU guest)", s.ExtraVCPUs)
		}
		// CPU frac 0.3 of (200 + 100) capacity = ~90 summed.
		if s.VMSum.CPU < 75 || s.VMSum.CPU > 105 {
			t.Errorf("summed guest CPU = %v, want ~90", s.VMSum.CPU)
		}
	}
}

func TestRunHeteroVCPUFloorAndDefaults(t *testing.T) {
	ss, err := RunHetero(HeteroScenario{VCPUs: []int{0}, CPUFrac: 0.5, Seed: 5, Samples: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ss[0].ExtraVCPUs != 0 {
		t.Errorf("vcpus=0 should floor to 1 (no extra), got %d extra", ss[0].ExtraVCPUs)
	}
}

// The extension's headline claim: configuration features improve overhead
// prediction on heterogeneous deployments.
func TestHeteroExperimentConfigModelWins(t *testing.T) {
	cmp, err := HeteroExperiment(21, 15, core.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.N == 0 {
		t.Fatal("empty evaluation set")
	}
	if cmp.ConfigHypMAE >= cmp.BaseHypMAE {
		t.Errorf("config model hypervisor MAE %v should beat base %v", cmp.ConfigHypMAE, cmp.BaseHypMAE)
	}
	if cmp.ConfigDom0MAE > cmp.BaseDom0MAE*1.1 {
		t.Errorf("config model Dom0 MAE %v should not be worse than base %v", cmp.ConfigDom0MAE, cmp.BaseDom0MAE)
	}
	// Both models should be in a sane absolute range.
	if cmp.ConfigHypMAE > 3 || cmp.ConfigDom0MAE > 5 {
		t.Errorf("config model MAEs implausibly large: dom0 %v, hyp %v", cmp.ConfigDom0MAE, cmp.ConfigHypMAE)
	}
}

func TestHeteroCorpusSplitsByN(t *testing.T) {
	single, multi, err := HeteroCorpus(31, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) == 0 || len(multi) == 0 {
		t.Fatalf("corpus sizes: single %d, multi %d", len(single), len(multi))
	}
	for _, s := range single {
		if s.N != 1 {
			t.Fatal("single corpus contains multi sample")
		}
	}
	for _, s := range multi {
		if s.N < 2 {
			t.Fatal("multi corpus contains single sample")
		}
	}
}

// TestHeteroCorpusMatchesSerial pins the parallel corpus to its
// scenarios run one by one, in order: every sample's counts and the bits
// of every utilization must match, at any GOMAXPROCS.
func TestHeteroCorpusMatchesSerial(t *testing.T) {
	const seed, samplesPerRun = 41, 6
	single, multi, err := HeteroCorpus(seed, samplesPerRun)
	if err != nil {
		t.Fatal(err)
	}
	wantSingle, wantMulti, err := refHeteroCorpus(seed, samplesPerRun)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSingle) == 0 || len(wantMulti) == 0 {
		t.Fatalf("reference corpus sizes: single %d, multi %d", len(wantSingle), len(wantMulti))
	}
	for _, c := range []struct {
		name      string
		got, want []core.ConfigSample
	}{{"single", single, wantSingle}, {"multi", multi, wantMulti}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d samples, serial %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if configSampleBits(c.got[i]) != configSampleBits(c.want[i]) {
				t.Fatalf("%s[%d] = %+v, serial %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// configSampleBits flattens a sample into its counts and the bits of
// its utilizations.
func configSampleBits(s core.ConfigSample) [12]uint64 {
	f := math.Float64bits
	return [12]uint64{
		uint64(s.N), uint64(s.ExtraVCPUs),
		f(s.VMSum.CPU), f(s.VMSum.Mem), f(s.VMSum.IO), f(s.VMSum.BW),
		f(s.Dom0CPU), f(s.HypCPU),
		f(s.PM.CPU), f(s.PM.Mem), f(s.PM.IO), f(s.PM.BW),
	}
}

// refHeteroCorpus is HeteroCorpus as it was when it ran its scenarios one
// by one on the calling goroutine, appending each run's samples as it
// finished. It is kept verbatim apart from its name; its only job is to
// pin the corpus (scenarios, seeds, order) the parallel version must
// reproduce.
func refHeteroCorpus(seed int64, samplesPerRun int) (single, multi []core.ConfigSample, err error) {
	// A dense fraction grid matters: high-VCPU guests saturate the host at
	// high fractions and those runs are filtered out, so the surviving
	// (fraction, VCPUs) combinations must still pin down the per-VCPU
	// convexity.
	fracs := []float64{0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}
	bws := []float64{0.001, 0.32, 1.28}
	// IO and memory side-load cycles de-collinearize the io/mem feature
	// columns, which pure CPU+BW campaigns would leave constant.
	ios := []float64{0, 20, 55}
	mems := []float64{0, 15, 45}
	run := func(sc HeteroScenario, tag int64) error {
		sc.Samples = samplesPerRun
		sc.Seed = seed + tag
		ss, rerr := RunHetero(sc)
		if rerr != nil {
			return rerr
		}
		for _, s := range ss {
			if s.N == 1 {
				single = append(single, s)
			} else {
				multi = append(multi, s)
			}
		}
		return nil
	}
	tag := int64(0)
	for _, v := range []int{1, 2, 4} {
		for fi, f := range fracs {
			for bi, bw := range bws {
				tag++
				if err := run(HeteroScenario{
					VCPUs: []int{v}, CPUFrac: f, BWMbps: bw,
					IOBlocks: ios[(fi+bi)%len(ios)],
					MemMB:    mems[(fi+2*bi)%len(mems)],
				}, tag*37); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	// Fixed-absolute-CPU runs: the same guest CPU total on 1, 2 and 4
	// VCPUs. These separate the per-VCPU features from the utilization
	// features, which fraction sweeps alone leave nearly collinear.
	for _, v := range []int{1, 2, 4} {
		for mi, mc := range []float64{20, 45, 70, 90} {
			tag++
			if err := run(HeteroScenario{
				VCPUs: []int{v}, CPUFrac: mc / (100 * float64(v)),
				BWMbps:   bws[mi%len(bws)],
				IOBlocks: ios[mi%len(ios)],
			}, tag*37); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, cfg := range [][]int{{1, 2}, {2, 2}, {1, 1, 2}, {1, 4}} {
		for fi, f := range fracs[:5] { // higher fractions saturate the pool
			for bi, bw := range bws {
				tag++
				if err := run(HeteroScenario{
					VCPUs: cfg, CPUFrac: f, FracSpread: 0.4, BWMbps: bw,
					IOBlocks: ios[(fi+2*bi)%len(ios)],
					MemMB:    mems[(fi+bi)%len(mems)],
				}, tag*37); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return single, multi, nil
}
