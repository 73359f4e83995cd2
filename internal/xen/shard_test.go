package xen

import (
	"reflect"
	"sync/atomic"
	"testing"

	"virtover/internal/sampling"
)

// recordSink copies every emitted sample through the serial adapter (the
// engine owns the batch slice, so retaining requires a copy).
type recordSink struct {
	*sampling.Serial
	samples []sampling.Sample
}

func newRecordSink() *recordSink {
	r := &recordSink{}
	r.Serial = sampling.NewSerial(func(b []sampling.Sample) { r.samples = append(r.samples, b...) })
	return r
}

// shardFixture builds a fleet that exercises every path the sharded step
// must merge deterministically: all three flow routing classes, an idle
// PM, a CPU-saturated PM (water-fill), process noise on (the default
// calibration), and two live migrations in flight.
func shardFixture() *Cluster {
	cl := BuildDatacenter(DatacenterSpec{PMs: 11, VMsPerPM: 4, Seed: 7, FlowEvery: 3})
	cl.AddPM("pm-idle") // exercises the empty-PM kernel and its noise draws
	hot := cl.AddPM("pm-hot")
	for i := 0; i < 6; i++ {
		vm := cl.AddVM(hot, "hot-"+string(rune('a'+i)), 256)
		vm.SetSource(SourceFunc(func(t float64) Demand {
			return Demand{CPU: 95, MemMB: 64}
		}))
	}
	return cl
}

func runSharded(t *testing.T, shards, steps int) []sampling.Sample {
	t.Helper()
	cl := shardFixture()
	e := NewEngineWithOptions(cl, DefaultCalibration(), 42, EngineOptions{Shards: shards})
	defer e.Close()
	rec := newRecordSink()
	e.AttachSink(rec)
	e.Advance(steps / 2)
	if err := e.BeginLiveMigration("vm-000000", cl.PMs[5]); err != nil {
		t.Fatalf("migration 1: %v", err)
	}
	if err := e.BeginLiveMigration("hot-a", cl.PMs[0]); err != nil {
		t.Fatalf("migration 2: %v", err)
	}
	e.Advance(steps - steps/2)
	return rec.samples
}

// TestShardDeterminism is the merge-order contract: the sample stream is
// bit-identical at every shard count. Run under -cpu 1,2,8 (make
// shard-determinism) this covers the Shards × GOMAXPROCS matrix.
func TestShardDeterminism(t *testing.T) {
	const steps = 24
	want := runSharded(t, 1, steps)
	if len(want) == 0 {
		t.Fatal("no samples emitted")
	}
	for _, shards := range []int{2, 3, 8, 64} {
		got := runSharded(t, shards, steps)
		if len(got) != len(want) {
			t.Fatalf("Shards=%d: %d samples, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Shards=%d: sample %d diverges:\n got %+v\nwant %+v",
					shards, i, got[i], want[i])
			}
		}
	}
}

// TestShardDeterminismNoiseless covers the rel<=0 branch where the noise
// pre-draw is skipped entirely.
func TestShardDeterminismNoiseless(t *testing.T) {
	run := func(shards int) []sampling.Sample {
		cl := shardFixture()
		calib := DefaultCalibration()
		calib.ProcessNoiseRel = 0
		e := NewEngineWithOptions(cl, calib, 42, EngineOptions{Shards: shards})
		defer e.Close()
		rec := newRecordSink()
		e.AttachSink(rec)
		e.Advance(12)
		return rec.samples
	}
	want := run(1)
	for _, shards := range []int{2, 8} {
		if got := run(shards); !reflect.DeepEqual(got, want) {
			t.Fatalf("Shards=%d: noiseless trace diverges", shards)
		}
	}
}

// TestSetShardsMidRun re-partitions a live engine between Advance calls;
// the stream must continue exactly as if the shard count never changed.
func TestSetShardsMidRun(t *testing.T) {
	want := runSharded(t, 1, 24)

	cl := shardFixture()
	e := NewEngineWithOptions(cl, DefaultCalibration(), 42, EngineOptions{Shards: 2})
	defer e.Close()
	rec := newRecordSink()
	e.AttachSink(rec)
	e.Advance(8)
	e.SetShards(5)
	e.Advance(4)
	if err := e.BeginLiveMigration("vm-000000", cl.PMs[5]); err != nil {
		t.Fatal(err)
	}
	if err := e.BeginLiveMigration("hot-a", cl.PMs[0]); err != nil {
		t.Fatal(err)
	}
	e.SetShards(1)
	e.Advance(6)
	e.SetShards(8)
	e.Advance(6)
	if !reflect.DeepEqual(rec.samples, want) {
		t.Fatal("trace diverges after SetShards mid-run")
	}
}

// TestEngineStateRoundTrip captures mid-run (with a migration in flight),
// rebuilds an identical cluster, restores, and requires the continuation
// to emit the exact samples of the uninterrupted run — including at a
// different shard count, since state is shard-agnostic.
func TestEngineStateRoundTrip(t *testing.T) {
	cl := shardFixture()
	e := NewEngineWithOptions(cl, DefaultCalibration(), 42, EngineOptions{Shards: 2})
	defer e.Close()
	e.Advance(6)
	if err := e.BeginLiveMigration("vm-000003", cl.PMs[7]); err != nil {
		t.Fatal(err)
	}
	e.Advance(1) // migration copy under way at capture time
	if len(e.Migrations()) == 0 {
		t.Fatal("fixture migration completed too early to test in-flight capture")
	}
	st := e.CaptureState()

	rec := newRecordSink()
	e.AttachSink(rec)
	e.Advance(15)
	want := rec.samples

	for _, shards := range []int{1, 4} {
		cl2 := shardFixture()
		e2 := NewEngineWithOptions(cl2, DefaultCalibration(), 999, EngineOptions{Shards: shards})
		e2.Advance(3) // arbitrary pre-restore activity, wiped by the restore
		if err := e2.RestoreState(st); err != nil {
			t.Fatalf("RestoreState: %v", err)
		}
		if e2.Now() != st.Now {
			t.Fatalf("Now=%v after restore, want %v", e2.Now(), st.Now)
		}
		rec2 := newRecordSink()
		e2.AttachSink(rec2)
		e2.Advance(15)
		e2.Close()
		if !reflect.DeepEqual(rec2.samples, want) {
			t.Fatalf("Shards=%d: restored continuation diverges from original run", shards)
		}
	}
}

// TestRestoreStateUnknownNames rejects states naming domains the cluster
// does not have.
func TestRestoreStateUnknownNames(t *testing.T) {
	cl := NewCluster()
	pm := cl.AddPM("pm0")
	cl.AddVM(pm, "vm0", 512)
	e := NewEngine(cl, DefaultCalibration(), 1)
	st := e.CaptureState()

	other := NewCluster()
	other.AddPM("pm0")
	e2 := NewEngine(other, DefaultCalibration(), 1)
	if err := e2.RestoreState(st); err == nil {
		t.Fatal("RestoreState accepted a state naming a missing VM")
	}
}

// TestShardedStepAllocationFree extends the steady-state zero-allocation
// guarantee to the pooled step: dispatching phases to persistent workers
// must not allocate either.
func TestShardedStepAllocationFree(t *testing.T) {
	cl := shardFixture()
	e := NewEngineWithOptions(cl, DefaultCalibration(), 42, EngineOptions{Shards: 4})
	defer e.Close()
	cnt := &countSink{}
	e.AttachSink(cnt)
	e.Advance(10) // warm the layout, scratch columns and sender lists
	avg := testing.AllocsPerRun(200, func() { e.Advance(1) })
	if avg != 0 {
		t.Fatalf("sharded step allocates %.1f times per step, want 0", avg)
	}
	if cnt.n.Load() == 0 {
		t.Fatal("no batch delivered")
	}
}

// countSink tallies delivered samples without retaining or allocating.
// Shards deliver concurrently, so it counts with an atomic.
type countSink struct{ n atomic.Int64 }

func (c *countSink) BeginStep(sampling.StepShape)              {}
func (c *countSink) ConsumeShard(_ int, seg []sampling.Sample) { c.n.Add(int64(len(seg))) }
func (c *countSink) FinishStep()                               {}

// TestFilteredDecimationShardInvariant: a filter that drops whole steps in
// front of Decimate(2) keeps the same steps at every shard count, because
// the decimator counts simulation steps, not non-empty deliveries.
func TestFilteredDecimationShardInvariant(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		e := NewEngineWithOptions(shardFixture(), DefaultCalibration(), 42, EngineOptions{Shards: shards})
		var times []float64
		kept := sampling.NewSerial(func(b []sampling.Sample) {
			if n := len(times); n == 0 || times[n-1] != b[0].Time {
				times = append(times, b[0].Time)
			}
		})
		e.AttachSink(&sampling.Filter{
			Keep: func(s sampling.Sample) bool { return int(s.Time)%2 == 0 },
			Next: sampling.Decimate(2, kept),
		})
		e.Advance(12)
		e.Close()
		if want := []float64{2, 4, 6, 8, 10, 12}; !reflect.DeepEqual(times, want) {
			t.Fatalf("shards=%d: kept steps %v, want %v", shards, times, want)
		}
	}
}
