package cloudscale

import (
	"virtover/internal/stats"
	"virtover/internal/units"
)

// SignaturePredictor is CloudScale's pattern-driven demand predictor [8]:
// it extracts the dominant repeating pattern ("signature") of each VM's
// demand series with an FFT and, when the series is strongly periodic,
// predicts the next interval from the same phase of previous periods —
// anticipating demand swings instead of chasing them. Aperiodic series
// fall back to the sliding-window predictor's max(mean, last) rule. Both
// paths apply the burst padding. It is not safe for concurrent use.
type SignaturePredictor struct {
	// Window is the history length considered (default 256 samples; it
	// must hold at least three periods of any pattern the predictor should
	// recognize).
	Window int
	// MinStrength is the spectral-power fraction the dominant period must
	// hold for the signature path to engage (default 0.35).
	MinStrength float64
	// Padding is the relative headroom added to predictions (default 0.05).
	Padding float64

	hist   map[string][][4]float64
	series []float64 // Predict's scratch: one dimension of a VM's history
}

// NewSignaturePredictor returns a predictor with CloudScale-like defaults.
func NewSignaturePredictor() *SignaturePredictor {
	return &SignaturePredictor{Window: 256, MinStrength: 0.35, Padding: 0.05}
}

func (p *SignaturePredictor) window() int {
	if p.Window <= 0 {
		return 256
	}
	return p.Window
}

// Observe appends one utilization sample for a VM.
func (p *SignaturePredictor) Observe(vm string, u units.Vector) {
	if p.hist == nil {
		p.hist = make(map[string][][4]float64)
	}
	h := append(p.hist[vm], [4]float64{u.CPU, u.Mem, u.IO, u.BW})
	if w := p.window(); len(h) > w {
		h = h[len(h)-w:]
	}
	p.hist[vm] = h
}

// Known reports whether the predictor has history for the VM.
func (p *SignaturePredictor) Known(vm string) bool { return len(p.hist[vm]) > 0 }

// minSignatureHistory is the least history before the signature path can
// engage: short series routinely look periodic by chance.
const minSignatureHistory = 32

// predictSeries forecasts the next value of one resource dimension.
func (p *SignaturePredictor) predictSeries(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	minStrength := p.MinStrength
	if minStrength <= 0 {
		minStrength = 0.35
	}
	var period int
	var strength float64
	if n >= minSignatureHistory {
		period, strength = stats.DominantPeriod(xs)
	}
	if strength >= minStrength && period >= 2 && period <= n/3 {
		// Signature path: average the values one period, two periods, ...
		// before the slot being predicted (slot index n).
		var sum float64
		var cnt int
		for k := 1; ; k++ {
			idx := n - k*period
			if idx < 0 {
				break
			}
			sum += xs[idx]
			cnt++
		}
		if cnt > 0 {
			return sum / float64(cnt)
		}
	}
	// Fallback: the sliding-window rule.
	mean := stats.Mean(xs)
	last := xs[n-1]
	if last > mean {
		return last
	}
	return mean
}

// Predict estimates the VM's demand for the next interval. Unknown VMs
// predict zero.
func (p *SignaturePredictor) Predict(vm string) units.Vector {
	h := p.hist[vm]
	if len(h) == 0 {
		return units.Vector{}
	}
	pad := p.Padding
	if pad < 0 {
		pad = 0
	}
	if cap(p.series) < len(h) {
		p.series = make([]float64, max(len(h), p.window()))
	}
	xs := p.series[:len(h)]
	var pred [4]float64
	for dim := range pred {
		for i, s := range h {
			xs[i] = s[dim]
		}
		pred[dim] = p.predictSeries(xs)
	}
	return units.V(pred[0], pred[1], pred[2], pred[3]).Scale(1 + pad).ClampNonNegative()
}
