package xen

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"virtover/internal/obs"
	"virtover/internal/sampling"
	"virtover/internal/simrand"
)

// jitterSource is a stateful test source: its demand depends on an
// evolving RNG stream, so a fork only replays correctly if the fork layer
// carries its state (via Forkable) alongside the EngineState.
type jitterSource struct {
	base float64
	rng  *simrand.Source
}

func newJitterSource(base float64, seed int64) *jitterSource {
	return &jitterSource{base: base, rng: simrand.New(seed)}
}

func (j *jitterSource) Demand(t float64) Demand {
	return Demand{CPU: j.rng.Jitter(j.base, 0.05), MemMB: 64}
}

func (j *jitterSource) ForkState() any         { return j.rng.State() }
func (j *jitterSource) RestoreForkState(v any) { j.rng.SetState(v.(simrand.State)) }

// forkFixtureBuild returns a deterministic builder for a small mixed fleet:
// a BuildDatacenter base plus stateful jittered hogs whose RNG state must
// travel with forks. The spec seed varies topology and jitter streams.
func forkFixtureBuild(seed int64, hogs int) func() (ForkBuild, error) {
	return func() (ForkBuild, error) {
		cl := BuildDatacenter(DatacenterSpec{PMs: 5, VMsPerPM: 3, Seed: seed, FlowEvery: 2})
		pm := cl.AddPM("pm-hog")
		b := ForkBuild{Cluster: cl}
		for i := 0; i < hogs; i++ {
			vm := cl.AddVM(pm, fmt.Sprintf("hog-%d", i), 256)
			src := newJitterSource(40+10*float64(i), seed+int64(i)*101)
			vm.SetSource(src)
			b.Aux = append(b.Aux, src)
		}
		b.Data = cl.PMs[0].Name
		return b, nil
	}
}

// TestForkedRunEquivalence is the fork layer's core property: over random
// scenarios, a cell forked from a warmed prefix emits a measured trace
// byte-identical to running the whole thing from scratch — at every shard
// count (run under -cpu 1,2,8 by make fork-determinism for the full
// Shards × GOMAXPROCS matrix).
func TestForkedRunEquivalence(t *testing.T) {
	meta := simrand.New(20260808)
	for trial := 0; trial < 6; trial++ {
		seed := meta.Int63()
		hogs := 1 + meta.Intn(4)
		warmup := 3 + meta.Intn(8)
		measure := 8 + meta.Intn(10)
		build := forkFixtureBuild(seed, hogs)

		scratch := func(shards int) []sampling.Sample {
			b, err := build()
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngineWithOptions(b.Cluster, DefaultCalibration(), seed, EngineOptions{Shards: shards})
			defer e.Close()
			e.Advance(warmup)
			rec := newRecordSink()
			e.AttachSink(rec)
			e.Advance(measure)
			return rec.samples
		}

		src, err := NewForkSource(build, DefaultCalibration(), seed, warmup)
		if err != nil {
			t.Fatalf("trial %d: NewForkSource: %v", trial, err)
		}

		want := scratch(1)
		if len(want) == 0 {
			t.Fatalf("trial %d: scratch run emitted no samples", trial)
		}
		for _, shards := range []int{1, 2, 8} {
			if got := scratch(shards); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: scratch trace diverges at Shards=%d", trial, shards)
			}
			e, data, err := src.Fork()
			if err != nil {
				t.Fatalf("trial %d: Fork: %v", trial, err)
			}
			e.SetShards(shards)
			if data.(string) != "pm-00000" {
				t.Fatalf("trial %d: Data payload %v not forwarded", trial, data)
			}
			rec := newRecordSink()
			e.AttachSink(rec)
			e.Advance(measure)
			got := rec.samples
			e.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: forked trace diverges from scratch at Shards=%d (warmup=%d, hogs=%d)",
					trial, shards, warmup, hogs)
			}
		}
	}
}

// TestForkedRunEquivalenceMidMigration captures the prefix with a live
// migration in flight (via the ForkBuild.Warm hook) and requires forks to
// resume the copy exactly where the prefix left it.
func TestForkedRunEquivalenceMidMigration(t *testing.T) {
	const seed, warmup, measure = 77, 8, 14
	build := func() (ForkBuild, error) {
		b, err := forkFixtureBuild(seed, 2)()
		if err != nil {
			return b, err
		}
		cl := b.Cluster
		b.Warm = func(e *Engine, steps int) error {
			e.Advance(steps / 2)
			if err := e.BeginLiveMigration("vm-000000", cl.PMs[3]); err != nil {
				return err
			}
			e.Advance(steps - steps/2)
			return nil
		}
		return b, nil
	}

	src, err := NewForkSource(build, DefaultCalibration(), seed, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.State().Migrations) == 0 {
		t.Fatal("fixture migration completed before capture; lengthen the copy")
	}

	b, _ := build()
	e := NewEngine(b.Cluster, DefaultCalibration(), seed)
	if err := b.Warm(e, warmup); err != nil {
		t.Fatal(err)
	}
	rec := newRecordSink()
	e.AttachSink(rec)
	e.Advance(measure)
	e.Close()
	want := rec.samples

	for _, shards := range []int{1, 2, 8} {
		fe, _, err := src.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fe.SetShards(shards)
		rec := newRecordSink()
		fe.AttachSink(rec)
		fe.Advance(measure)
		fe.Close()
		if !reflect.DeepEqual(rec.samples, want) {
			t.Fatalf("Shards=%d: mid-migration fork diverges", shards)
		}
	}
}

// TestForkStateHashStable: identically built prefixes hash identically
// (the cache's content-address is trustworthy), and the hash reacts to any
// prefix ingredient changing.
func TestForkStateHashStable(t *testing.T) {
	build := forkFixtureBuild(5, 2)
	a, err := NewForkSource(build, DefaultCalibration(), 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewForkSource(build, DefaultCalibration(), 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.StateHash() != b.StateHash() {
		t.Fatal("identical prefixes hash differently")
	}
	variants := []struct {
		name string
		src  func() (*ForkSource, error)
	}{
		{"seed", func() (*ForkSource, error) { return NewForkSource(build, DefaultCalibration(), 6, 6) }},
		{"warmup", func() (*ForkSource, error) { return NewForkSource(build, DefaultCalibration(), 5, 7) }},
		{"topology", func() (*ForkSource, error) {
			return NewForkSource(forkFixtureBuild(9, 2), DefaultCalibration(), 5, 6)
		}},
	}
	for _, v := range variants {
		o, err := v.src()
		if err != nil {
			t.Fatal(err)
		}
		if o.StateHash() == a.StateHash() {
			t.Fatalf("changing %s left the state hash unchanged", v.name)
		}
	}
}

// TestEngineStateClone: the clone shares no backing arrays with the
// original.
func TestEngineStateClone(t *testing.T) {
	build := forkFixtureBuild(3, 1)
	b, _ := build()
	e := NewEngine(b.Cluster, DefaultCalibration(), 3)
	defer e.Close()
	e.Advance(4)
	st := e.CaptureState()
	cp := st.Clone()
	if cp.Hash() != st.Hash() {
		t.Fatal("clone hashes differently")
	}
	if len(st.VMs) > 0 {
		st.VMs[0].Util.CPU += 100
		if cp.VMs[0].Util.CPU == st.VMs[0].Util.CPU {
			t.Fatal("clone shares the VMs array")
		}
	}
	if cp.Hash() == st.Hash() {
		t.Fatal("hash ignored a VM utilization change")
	}
}

// TestRestoreStateIntoAllocs pins the fork fast path: restoring a captured
// state into an engine whose cluster already sits at the captured
// placement is allocation-free in steady state (columns, scratch and
// migration records all reused).
func TestRestoreStateIntoAllocs(t *testing.T) {
	const seed, warmup = 11, 8
	build := forkFixtureBuild(seed, 2)
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cl := b.Cluster
	e := NewEngine(cl, DefaultCalibration(), seed)
	defer e.Close()
	e.Advance(warmup / 2)
	if err := e.BeginLiveMigration("vm-000001", cl.PMs[4]); err != nil {
		t.Fatal(err)
	}
	e.Advance(warmup - warmup/2)
	if len(e.Migrations()) == 0 {
		t.Fatal("fixture migration completed before capture; restore path untested")
	}
	st := e.CaptureState()

	// Warm the restore path once (first restore may allocate migration
	// records), then require steady-state restores to be allocation-free.
	if err := e.RestoreStateInto(&st); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := e.RestoreStateInto(&st); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state RestoreStateInto allocates %.1f times per op, want 0", avg)
	}

	// The restored engine must still continue correctly after the
	// no-alloc restores.
	rec := newRecordSink()
	e.AttachSink(rec)
	e.Advance(5)
	if len(rec.samples) == 0 {
		t.Fatal("no samples after repeated restores")
	}
}

// TestForkCacheLRU covers hit/miss accounting, eviction order and byte
// tracking.
func TestForkCacheLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewForkCache(2)
	c.Instrument(reg)
	mk := func(seed int64) *ForkSource {
		s, err := NewForkSource(forkFixtureBuild(seed, 1), DefaultCalibration(), seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	build := func(seed int64) func() (*ForkSource, error) {
		return func() (*ForkSource, error) { return mk(seed), nil }
	}

	if _, hit, err := c.GetOrBuild("a", build(1)); err != nil || hit {
		t.Fatalf("first a: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.GetOrBuild("a", build(1)); err != nil || !hit {
		t.Fatalf("second a: hit=%v err=%v", hit, err)
	}
	c.GetOrBuild("b", build(2))
	c.GetOrBuild("a", build(1)) // refresh a; b is now LRU
	c.GetOrBuild("c", build(3)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being MRU")
	}
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2", c.Len())
	}
	if c.Bytes() <= 0 {
		t.Fatal("Bytes accounting stayed at zero")
	}
	snap := reg.Snapshot()
	vals := map[string]int64{}
	for _, m := range snap.Counters {
		vals[m.Name] = int64(m.Value)
	}
	for _, g := range snap.Gauges {
		vals[g.Name] = g.Value
	}
	if vals["fork_hits_total"] != 2 || vals["fork_misses_total"] != 3 || vals["fork_evictions_total"] != 1 {
		t.Fatalf("metrics hits=%d misses=%d evictions=%d, want 2/3/1",
			vals["fork_hits_total"], vals["fork_misses_total"], vals["fork_evictions_total"])
	}
	if vals["fork_bytes"] != int64(c.Bytes()) || vals["fork_entries"] != 2 {
		t.Fatalf("gauges bytes=%d entries=%d, want %d/2", vals["fork_bytes"], vals["fork_entries"], c.Bytes())
	}
}

// TestForkCacheSingleflight: 24 concurrent requests for one missing key
// run exactly one build; the rest coalesce onto it.
func TestForkCacheSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewForkCache(4)
	c.Instrument(reg)
	var builds atomic.Int32
	build := func() (*ForkSource, error) {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the coalescing window
		return NewForkSource(forkFixtureBuild(1, 1), DefaultCalibration(), 1, 2)
	}
	var wg sync.WaitGroup
	srcs := make([]*ForkSource, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, _, err := c.GetOrBuild("k", build)
			if err != nil {
				t.Errorf("GetOrBuild: %v", err)
			}
			srcs[i] = s
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for _, s := range srcs[1:] {
		if s != srcs[0] {
			t.Fatal("coalesced callers got different sources")
		}
	}
}

// TestForkCacheBuildErrorNotCached: a failed build propagates to all
// coalesced waiters and is retried by the next call.
func TestForkCacheBuildErrorNotCached(t *testing.T) {
	c := NewForkCache(4)
	boom := fmt.Errorf("boom")
	if _, _, err := c.GetOrBuild("k", func() (*ForkSource, error) { return nil, boom }); err != boom {
		t.Fatalf("err=%v, want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed build was cached")
	}
	s, hit, err := c.GetOrBuild("k", func() (*ForkSource, error) {
		return NewForkSource(forkFixtureBuild(1, 1), DefaultCalibration(), 1, 2)
	})
	if err != nil || hit || s == nil {
		t.Fatalf("retry after failure: src=%v hit=%v err=%v", s, hit, err)
	}
}
