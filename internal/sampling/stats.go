package sampling

import (
	"math"

	"virtover/internal/stats"
	"virtover/internal/units"
)

// Selector extracts one scalar from a sample; ok=false skips the sample.
// Selectors make the generic stat sinks below composable: the same online
// estimator can follow any domain/metric slice of the stream.
type Selector func(Sample) (float64, bool)

// SelectKind keeps samples of one kind (any PM) and reads resource r.
func SelectKind(k Kind, r units.Resource) Selector {
	return func(s Sample) (float64, bool) {
		if s.Kind != k {
			return 0, false
		}
		return s.Util.Get(r), true
	}
}

// SelectPM keeps samples of one kind on one PM (by name) and reads
// resource r.
func SelectPM(pm string, k Kind, r units.Resource) Selector {
	return func(s Sample) (float64, bool) {
		if s.Kind != k || s.PM != pm {
			return 0, false
		}
		return s.Util.Get(r), true
	}
}

// SelectDomain keeps samples of one named domain (a guest, "Domain-0", ...)
// and reads resource r.
func SelectDomain(domain string, r units.Resource) Selector {
	return func(s Sample) (float64, bool) {
		if s.Domain != domain {
			return 0, false
		}
		return s.Util.Get(r), true
	}
}

// Summary is the exported snapshot of one online-statistics stream.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
}

// Stat folds an unbounded scalar stream into O(1)-memory summaries:
// Welford moments plus P² estimators for the 50th/90th/99th percentiles.
// It is the online-statistics core shared by the monitor's stream
// aggregator and the stat sinks.
type Stat struct {
	w   stats.Welford
	p50 *stats.P2Quantile
	p90 *stats.P2Quantile
	p99 *stats.P2Quantile
}

// NewStat returns an empty estimator set.
func NewStat() *Stat {
	p50, _ := stats.NewP2Quantile(0.50)
	p90, _ := stats.NewP2Quantile(0.90)
	p99, _ := stats.NewP2Quantile(0.99)
	return &Stat{p50: p50, p90: p90, p99: p99}
}

// Add ingests one observation.
func (t *Stat) Add(x float64) {
	t.w.Add(x)
	t.p50.Add(x)
	t.p90.Add(x)
	t.p99.Add(x)
}

// Summary snapshots the stream.
func (t *Stat) Summary() Summary {
	v := t.w.Variance()
	if v < 0 {
		v = 0
	}
	return Summary{
		N:    t.w.N(),
		Mean: t.w.Mean(),
		Std:  math.Sqrt(v),
		Min:  t.w.Min(),
		Max:  t.w.Max(),
		P50:  t.p50.Value(),
		P90:  t.p90.Value(),
		P99:  t.p99.Value(),
	}
}

// StatSink streams one selected scalar into a Stat. Shards stage their
// selected values; the estimator itself is order-sensitive and only
// touched by the merge.
type StatSink struct {
	sel  Selector
	stat *Stat
	shv  [][]float64 // per-shard staged values
}

// NewStatSink builds a stat sink over sel.
func NewStatSink(sel Selector) *StatSink {
	return &StatSink{sel: sel, stat: NewStat()}
}

// BeginStep implements Sink.
func (s *StatSink) BeginStep(shape StepShape) { s.shv = growShardBufs(s.shv, shape.Shards) }

// ConsumeShard implements Sink.
func (s *StatSink) ConsumeShard(shard int, seg []Sample) {
	s.shv[shard] = appendSelected(s.shv[shard], s.sel, seg)
}

// FinishStep implements Sink: folds the staged values in shard order,
// which is the emission order.
func (s *StatSink) FinishStep() {
	for _, vals := range s.shv {
		for _, x := range vals {
			s.stat.Add(x)
		}
	}
}

// Summary snapshots the selected stream.
func (s *StatSink) Summary() Summary { return s.stat.Summary() }

// CDFSink retains every selected scalar and materializes an empirical CDF
// on demand — the per-sample error distributions of Figures 7-9 consume
// streams this way.
type CDFSink struct {
	sel    Selector
	values []float64
	shv    [][]float64 // per-shard staged values
}

// NewCDFSink builds a CDF sink over sel.
func NewCDFSink(sel Selector) *CDFSink {
	return &CDFSink{sel: sel}
}

// BeginStep implements Sink.
func (c *CDFSink) BeginStep(shape StepShape) { c.shv = growShardBufs(c.shv, shape.Shards) }

// ConsumeShard implements Sink.
func (c *CDFSink) ConsumeShard(shard int, seg []Sample) {
	c.shv[shard] = appendSelected(c.shv[shard], c.sel, seg)
}

// FinishStep implements Sink: appends the staged values in shard order,
// preserving the emission order of Values.
func (c *CDFSink) FinishStep() {
	for _, vals := range c.shv {
		c.values = append(c.values, vals...)
	}
}

// Values returns the retained observations in arrival order.
func (c *CDFSink) Values() []float64 { return c.values }

// CDF builds the empirical CDF of the retained observations.
func (c *CDFSink) CDF() *stats.CDF { return stats.NewCDF(c.values) }

// growShardBufs sizes a per-shard float buffer table for a new step:
// `shards` buffers, each truncated to length zero with capacity kept.
func growShardBufs(bufs [][]float64, shards int) [][]float64 {
	for len(bufs) < shards {
		bufs = append(bufs, nil)
	}
	bufs = bufs[:shards]
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	return bufs
}

// appendSelected appends the values sel extracts from seg to buf.
func appendSelected(buf []float64, sel Selector, seg []Sample) []float64 {
	for i := range seg {
		if x, ok := sel(seg[i]); ok {
			buf = append(buf, x)
		}
	}
	return buf
}
