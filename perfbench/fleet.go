package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"virtover/internal/monitor"
	"virtover/internal/xen"
)

// The fleet product: a noiseless 2000-PM datacenter stepped on nproc
// shards, every PM metered by the full Table I tool pipeline at 1 Hz into a
// StreamAggregator.

const (
	fleetVMsPerPM = 5
	fleetWarmup   = 6  // SoA layout, instruments, P2 estimators
	fleetChunk    = 25 // steps per timed chunk
)

// fleetSize scales the fleet product.
type fleetSize struct {
	pms         int
	setups      int           // set-ups timed; setup_s is their median
	measure     time.Duration // time spent stepping metered chunks
	checkChunks int           // chunks stepped at 1 and nproc shards for the hash check
}

func fleetSizeFor(p params) fleetSize {
	switch p.size {
	case sizeFull:
		// One set-up takes about 0.3 s and single ones scatter by a third,
		// so setup_s is the median of many.
		return fleetSize{pms: 2000, setups: 9, measure: p.budget(0.45), checkChunks: 2}
	case sizeSmoke:
		return fleetSize{pms: 100, setups: 1, measure: p.budget(0.2), checkChunks: 1}
	}
	return fleetSize{pms: 2000, setups: 1, measure: p.budget(0.2), checkChunks: 1}
}

// fleet is one set-up fleet: engine, and, when metered, its aggregator.
type fleet struct {
	e      *xen.Engine
	agg    *monitor.StreamAggregator
	detach func()
}

func (f *fleet) close() {
	if f.detach != nil {
		f.detach()
	}
	f.e.Close()
}

// newFleet builds, attaches and warms one fleet. First, untimed, it returns
// the memory of closed fleets to the OS. A set-up then faults its pages in
// as a fresh process does, and peak RSS holds one fleet: with a plain GC,
// freed pages stayed resident and in one run in five a later fleet's
// allocations landed beside them, lifting peak RSS from 102 to 140 MB. It
// returns the set-up time and the part of it BuildDatacenter took.
func newFleet(seed int64, pms, shards int, metered bool) (f *fleet, setup, build time.Duration, err error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	cl := xen.BuildDatacenter(xen.DatacenterSpec{PMs: pms, VMsPerPM: fleetVMsPerPM, Seed: seed, FlowEvery: 8})
	build = time.Since(t0)
	calib := xen.DefaultCalibration()
	calib.ProcessNoiseRel = 0
	f = &fleet{e: xen.NewEngineWithOptions(cl, calib, seed, xen.EngineOptions{Shards: shards})}
	if metered {
		f.agg = monitor.NewStreamAggregator()
		script := monitor.Script{IntervalSteps: 1, Noise: monitor.DefaultNoise(), Seed: seed + 7}
		if f.detach, err = script.Attach(f.e, nil, f.agg); err != nil {
			f.e.Close()
			return nil, 0, 0, err
		}
	}
	if err := f.e.AdvanceContext(context.Background(), fleetWarmup); err != nil {
		f.close()
		return nil, 0, 0, err
	}
	return f, time.Since(t0), build, nil
}

// summaryHash fingerprints the aggregator's per-PM summaries.
func (f *fleet) summaryHash() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v", f.agg.Summary())))
	return hex.EncodeToString(sum[:8])
}

// stepChunks advances f in fleetChunk-step chunks until budget has passed
// (at least min chunks) and returns each chunk's milliseconds per step.
func stepChunks(ctx context.Context, f *fleet, budget time.Duration, min int, tr *tracer, name string) ([]float64, error) {
	var perStep []float64
	deadline := time.Now().Add(budget)
	for len(perStep) < min || time.Now().Before(deadline) {
		id := tr.start(name, 0)
		t0 := time.Now()
		if err := f.e.AdvanceContext(ctx, fleetChunk); err != nil {
			return nil, err
		}
		perStep = append(perStep, ms(time.Since(t0))/fleetChunk)
		tr.end(id)
	}
	return perStep, nil
}

// runFleet measures set-up several times, then PM-steps per second over
// fixed-size chunks, and checks the aggregator summary is the same at 1 and
// nproc shards.
func runFleet(ctx context.Context, p params) (*childResult, error) {
	res := newResult()
	tr := p.trace
	size := fleetSizeFor(p)
	if tr.enabled() {
		size.checkChunks = 8 // the serial chunks also time the shard speed-up
	}
	var setup, builds []float64
	var f *fleet
	for i := 0; i < size.setups; i++ {
		if f != nil {
			f.close()
		}
		id := tr.start("fleet.setup", 0)
		var took, build time.Duration
		var err error
		f, took, build, err = newFleet(p.seed, size.pms, nproc(), true)
		tr.end(id)
		res.op(err)
		if err != nil {
			return res, nil
		}
		setup = append(setup, took.Seconds())
		builds = append(builds, build.Seconds())
	}
	res.Metrics["setup_s"] = median(setup)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metered, err := stepChunks(ctx, f, size.measure, 5, tr, "fleet.chunk")
	runtime.ReadMemStats(&m1)
	f.close()
	if err != nil {
		res.op(err)
		return res, nil
	}
	res.Attempted += int64(len(metered))
	res.Metrics["fleet_pm_steps_per_s"] = float64(size.pms) / (median(metered) / 1000)
	fmt.Fprintf(os.Stderr, "perfbench fleet: %d chunks of %d steps, ms/step p10 %.3f p50 %.3f p90 %.3f\n",
		len(metered), fleetChunk, quantile(metered, 0.1), median(metered), quantile(metered, 0.9))

	// The summary must not depend on the shard count.
	hashes := map[int]string{}
	var serialStep []float64
	for _, shards := range []int{1, nproc()} {
		g, _, _, err := newFleet(p.seed, size.pms, shards, true)
		res.op(err)
		if err != nil {
			return res, nil
		}
		for c := 0; c < size.checkChunks && err == nil; c++ {
			id := tr.start(fmt.Sprintf("fleet.check_chunk.shards%d", shards), 0)
			t0 := time.Now()
			err = g.e.AdvanceContext(ctx, fleetChunk)
			if shards == 1 {
				serialStep = append(serialStep, ms(time.Since(t0))/fleetChunk)
			}
			tr.end(id)
		}
		res.op(err)
		hashes[shards] = g.summaryHash()
		g.close()
	}
	if hashes[1] != hashes[nproc()] {
		res.problem("aggregator summary hash %s at 1 shard, %s at %d shards", hashes[1], hashes[nproc()], nproc())
	}
	if !tr.enabled() {
		return res, nil
	}

	res.Metrics["xen.build_s"] = median(builds)
	res.Metrics["fleet.allocs_per_step"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(metered)*fleetChunk)
	res.Metrics["xen.shard_speedup"] = median(serialStep) / median(metered)
	bare, _, _, err := newFleet(p.seed, size.pms, nproc(), false)
	res.op(err)
	if err != nil {
		return res, nil
	}
	unmetered, err := stepChunks(ctx, bare, p.budget(0.1), 5, tr, "fleet.unmetered_chunk")
	bare.close()
	res.op(err)
	if err != nil {
		return res, nil
	}
	res.Metrics["xen.step_ms"] = median(unmetered)
	res.Metrics["monitor.meter_step_ms"] = median(metered) - median(unmetered)
	return res, nil
}
