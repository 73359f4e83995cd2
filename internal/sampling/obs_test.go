package sampling

import (
	"fmt"
	"testing"

	"virtover/internal/obs"
)

func hostBatch(t float64, n int) []Sample {
	b := make([]Sample, n)
	for i := range b {
		b[i] = Sample{Time: t, PMID: i, PM: fmt.Sprintf("pm%d", i), Kind: KindHost}
	}
	return b
}

// TestDecimatorCounters: every step decision increments exactly one of the
// keep/drop counters, once per step regardless of segment count or size.
func TestDecimatorCounters(t *testing.T) {
	reg := obs.NewRegistry()
	kept := reg.Counter("kept", "")
	dropped := reg.Counter("dropped", "")
	var out Counter
	d := Decimate(3, NewSerial(out.Count))
	d.Instrument(kept, dropped)
	for st := 1; st <= 9; st++ {
		step(d, float64(st), hostBatch(float64(st), 4))
	}
	if kept.Value() != 3 || dropped.Value() != 6 {
		t.Errorf("kept/dropped = %d/%d, want 3/6", kept.Value(), dropped.Value())
	}
	if out.Total != 3*4 {
		t.Errorf("forwarded samples = %d, want 12", out.Total)
	}
	// A sharded step is still one decision.
	for st := 10; st <= 12; st++ {
		deliver(d, 3, 6, float64(st))
	}
	if kept.Value() != 4 || dropped.Value() != 8 {
		t.Errorf("after sharded steps kept/dropped = %d/%d, want 4/8", kept.Value(), dropped.Value())
	}
}

// TestFilterCounters: each sample is counted once on whichever side of the
// filter it lands, whichever shard delivered it.
func TestFilterCounters(t *testing.T) {
	reg := obs.NewRegistry()
	var out Counter
	f := &Filter{
		Keep:    func(s Sample) bool { return s.PMID == 1 },
		Next:    NewSerial(out.Count),
		Kept:    reg.Counter("kept", ""),
		Dropped: reg.Counter("dropped", ""),
	}
	step(f, 1, hostBatch(1, 4)) // PMIDs 0..3: keeps exactly PMID 1
	deliver(f, 2, 2, 2)         // two groups of four; keeps PM 1's group
	if f.Kept.Value() != 1+4 || f.Dropped.Value() != 3+4 {
		t.Errorf("kept/dropped = %d/%d, want 5/7", f.Kept.Value(), f.Dropped.Value())
	}
	if out.Total != 5 {
		t.Errorf("forwarded = %d, want 5", out.Total)
	}
}
