package serve

import (
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"virtover/internal/core"
	"virtover/internal/obs"
)

// Background refits: the loop that keeps tenant models fresh. Every
// RefitInterval it sweeps the registry, and for each tenant with new
// samples since its last fit it (1) snapshots the window, (2) fits a
// challenger model on the existing OLS/LMS kernels, (3) runs the drift
// rule — core.CompareOnWindow's bootstrap CI over the paired residual
// advantage — against the incumbent, and (4) on significant drift
// publishes the challenger with one atomic pointer store. Readers
// (/v1/tenants/{id}/estimate, /v1/tenants/{id}/model) take one atomic
// Load and therefore never observe a partially-written coefficient set:
// models are immutable after fitting and the swap is the only mutation.
//
// The loop runs on its own goroutine, not on the request worker pool:
// refits are background maintenance and must not eat the pool capacity
// that bounds request latency.

// minRefitSamples is the fewest single-VM window samples a refit will fit
// on (the OLS design has five columns; a few extra rows keep the fit from
// teetering on exact determination). Multi-VM samples below the same
// bound are left out of the co-location term rather than failing the fit.
const minRefitSamples = 8

// refitDisposition classifies one refit outcome for metrics and journal
// events.
type refitDisposition string

const (
	refitSeed refitDisposition = "seed"  // first model for the tenant
	refitSwap refitDisposition = "swap"  // drift significant: challenger published
	refitKeep refitDisposition = "keep"  // challenger discarded, incumbent stays
	refitSkip refitDisposition = "skip"  // too few samples to fit
	refitFail refitDisposition = "error" // fit or drift rule failed, incumbent stays
)

// refitter owns the background loop's lifecycle and scratch. Sweeps are
// serialized by sweepMu so a forced RefitNow and the ticker never refit
// the same tenant concurrently.
type refitter struct {
	s        *Server
	interval time.Duration

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// lastSweep is the wall-clock Unix-nanosecond completion time of the
	// most recent sweep (0 before the first), reported by /v1/healthz as
	// the last-refit age.
	lastSweep atomic.Int64

	sweepMu sync.Mutex
	window  []core.Sample
	single  []core.Sample
	multi   []core.Sample
	tenants []*tenant
}

func newRefitter(s *Server, interval time.Duration) *refitter {
	rf := &refitter{
		s:        s,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if interval > 0 {
		go rf.run()
	} else {
		close(rf.done) // no loop to wait for
	}
	return rf
}

// run is the ticker loop. It exits when stopLoop closes stop; an
// in-flight sweep observes the canceled context between tenants.
func (rf *refitter) run() {
	defer close(rf.done)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-rf.stop
		cancel()
	}()
	tick := time.NewTicker(rf.interval)
	defer tick.Stop()
	for {
		select {
		case <-rf.stop:
			return
		case <-tick.C:
			_, _, _ = rf.sweep(ctx)
		}
	}
}

// stopLoop halts the ticker loop and waits for any in-flight sweep to
// finish. Idempotent.
func (rf *refitter) stopLoop() {
	rf.stopOnce.Do(func() { close(rf.stop) })
	<-rf.done
}

// RefitNow forces one synchronous refit sweep over every dirty tenant and
// reports how many tenants were refit and how many of those published a
// new model; a skipped or failed fit counts as neither. It is the test and
// embedding hook for driving refits deterministically (set
// Options.RefitInterval < 0 to disable the background loop and call
// RefitNow yourself) and is safe to call while the loop runs: sweeps
// serialize.
func (s *Server) RefitNow(ctx context.Context) (refits, swaps int, err error) {
	return s.refit.sweep(ctx)
}

// sweep refits every dirty tenant once.
func (rf *refitter) sweep(ctx context.Context) (refits, swaps int, err error) {
	rf.sweepMu.Lock()
	defer rf.sweepMu.Unlock()
	rf.tenants = rf.s.tenants.all(rf.tenants[:0])
	for _, t := range rf.tenants {
		if cerr := ctx.Err(); cerr != nil {
			return refits, swaps, cerr
		}
		if !t.dirty.Load() {
			continue
		}
		switch rf.refitTenant(t) {
		case refitSeed, refitSwap:
			refits++
			swaps++
		case refitKeep:
			refits++
		}
	}
	rf.lastSweep.Store(time.Now().UnixNano())
	return refits, swaps, nil
}

// refitTenant fits one challenger for t and applies the drift rule; a
// failure is counted and journaled here. The caller holds sweepMu, so the
// scratch slices are single-writer.
func (rf *refitter) refitTenant(t *tenant) refitDisposition {
	s := rf.s
	jr := s.jr
	t0 := jr.Now()

	// Snapshot the window and clear dirtiness first: samples that arrive
	// while the fit runs re-dirty the tenant and are picked up next sweep.
	t.dirty.Store(false)
	t.mu.Lock()
	rf.window = t.win.snapshot(rf.window[:0])
	t.mu.Unlock()

	rf.single, rf.multi = rf.single[:0], rf.multi[:0]
	for _, smp := range rf.window {
		if smp.N <= 1 {
			rf.single = append(rf.single, smp)
		} else {
			rf.multi = append(rf.multi, smp)
		}
	}
	if len(rf.single) < minRefitSamples {
		// Not enough single-VM evidence yet; wait for more telemetry.
		return refitSkip
	}
	multi := rf.multi
	if len(multi) < minRefitSamples {
		// Too thin for a stable co-location term; fit single-VM only.
		multi = nil
	}

	challenger, err := core.Train(rf.single, multi, s.opt.Refit)
	if err != nil {
		s.m.refitErrs.Inc()
		rf.emit(t, t0, string(refitFail), len(rf.window), err)
		return refitFail
	}

	incumbent := t.cur.Load()
	disp := refitSeed
	if incumbent != nil {
		rep, derr := core.CompareOnWindow(incumbent.model, challenger, rf.window, core.DriftOptions{
			B:    s.opt.DriftBootstrap,
			Conf: s.opt.DriftConf,
			Seed: driftSeed(t.id),
		})
		if derr != nil {
			s.m.refitErrs.Inc()
			rf.emit(t, t0, string(refitFail), len(rf.window), derr)
			return refitFail
		}
		if rep.Significant {
			disp = refitSwap
		} else {
			disp = refitKeep
		}
	}

	s.m.refits.Inc()
	if disp == refitKeep {
		rf.emit(t, t0, string(disp), len(rf.window), nil)
		return disp
	}

	var version uint64 = 1
	if incumbent != nil {
		version = incumbent.version + 1
	}
	t.cur.Store(&tenantModel{
		model:    challenger,
		version:  version,
		samples:  len(rf.window),
		fittedAt: time.Now().UnixNano(),
		hash:     modelHash(challenger),
	})
	s.m.swaps.Inc()
	rf.emit(t, t0, string(disp), len(rf.window), nil)
	return disp
}

// emit journals one "refit" event.
func (rf *refitter) emit(t *tenant, t0 int64, disposition string, samples int, err error) {
	jr := rf.s.jr
	if !jr.Enabled() {
		return
	}
	e := obs.Event{
		Type:     "refit",
		Name:     t.id,
		Samples:  samples,
		Cache:    disposition,
		Method:   methodName(rf.s.opt.Refit.Method),
		DurNanos: jr.Now() - t0,
	}
	if err != nil {
		e.Err = err.Error()
	}
	jr.Emit(&e)
}

func methodName(m core.Method) string {
	if m == core.MethodLMS {
		return "lms"
	}
	return "ols"
}

// lastRefitAge returns seconds since the last completed sweep, or -1 when
// none has completed yet.
func (rf *refitter) lastRefitAge() float64 {
	last := rf.lastSweep.Load()
	if last == 0 {
		return -1
	}
	return time.Since(time.Unix(0, last)).Seconds()
}

// driftSeed derives a stable per-tenant bootstrap seed, so drift
// decisions are deterministic in the tenant's identity and window
// contents (the drift-determinism gate feeds two servers identical
// windows and requires identical swap decisions).
func driftSeed(id string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int64(h.Sum64())
}
