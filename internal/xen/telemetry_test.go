package xen

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"virtover/internal/obs"
)

func zeroJournal(w *bytes.Buffer, opts ...obs.JournalOption) *obs.Journal {
	opts = append([]obs.JournalOption{
		obs.WithJournalClock(func() int64 { return 0 }),
		obs.WithAllocProbe(func() int64 { return 0 }),
	}, opts...)
	return obs.NewJournal(w, opts...)
}

// TestEngineJournalStepEvents: an engine with a journal attached emits one
// "step" event per window, carrying the step index, simulated time and
// the window's sample count, with normalized timings omitted.
func TestEngineJournalStepEvents(t *testing.T) {
	var buf bytes.Buffer
	j := zeroJournal(&buf, obs.WithStepWindow(5))
	cl := shardFixture()
	e := NewEngineWithOptions(cl, DefaultCalibration(), 42, EngineOptions{Shards: 2})
	defer e.Close()
	e.SetJournal(j)
	rec := newRecordSink()
	e.AttachSink(rec)
	e.Advance(12) // 2 full windows; the trailing partial window flushes on Close
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d step events for 12 steps at window 5, want 2:\n%s", len(lines), buf.String())
	}
	perStep := len(rec.samples) / 12
	want0 := `{"type":"step","step":5,"steps":5,"sim":5,"samples":` // + perStep*5 + "}"
	if !strings.HasPrefix(lines[0], want0) {
		t.Fatalf("first step event %q, want prefix %q", lines[0], want0)
	}
	if !strings.Contains(lines[1], `"step":10`) || !strings.Contains(lines[1], `"sim":10`) {
		t.Fatalf("second step event wrong: %q", lines[1])
	}
	for _, line := range lines {
		if !strings.HasSuffix(line, `"samples":`+itoa(perStep*5)+"}") {
			t.Fatalf("event %q does not carry %d samples", line, perStep*5)
		}
	}

	// Close flushes the 2-step tail so short runs never journal nothing.
	e.Close()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d step events after Close, want the 2-step tail flushed:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[2], `"step":12`) || !strings.Contains(lines[2], `"steps":2`) {
		t.Fatalf("tail event wrong: %q", lines[2])
	}
}

func itoa(n int) string {
	b := [8]byte{}
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestEngineJournalDefaults: SetDefaultJournal/SetDefaultProfiler are
// picked up at engine construction and detached cleanly.
func TestEngineJournalDefaults(t *testing.T) {
	var buf bytes.Buffer
	j := zeroJournal(&buf, obs.WithStepWindow(1))
	p := obs.NewShardProfiler(func() int64 { return 0 })
	SetDefaultJournal(j)
	SetDefaultProfiler(p)
	defer SetDefaultJournal(nil)
	defer SetDefaultProfiler(nil)

	cl := NewCluster()
	pm := cl.AddPM("pm1")
	cl.AddVM(pm, "vm1", 512)
	e := NewEngine(cl, DefaultCalibration(), 1)
	defer e.Close()
	e.Advance(3)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"type":"step"`); n != 3 {
		t.Fatalf("default journal recorded %d step events, want 3:\n%s", n, buf.String())
	}

	SetDefaultJournal(nil)
	e2 := NewEngine(cl, DefaultCalibration(), 1)
	defer e2.Close()
	e2.Advance(1)
	_ = j.Flush()
	if n := strings.Count(buf.String(), `"type":"step"`); n != 3 {
		t.Fatalf("detached default journal still records: %d events", n)
	}
}

// TestProfilerRecordsPhases: a profiled sharded run accumulates time into
// every phase row it executed, and the engine's imbalance gauges move.
func TestProfilerRecordsPhases(t *testing.T) {
	var tick atomic.Int64 // clocks are read concurrently by shard workers
	p := obs.NewShardProfiler(func() int64 { return tick.Add(1) })
	cl := shardFixture()
	e := NewEngineWithOptions(cl, DefaultCalibration(), 42, EngineOptions{Shards: 4})
	defer e.Close()
	e.SetProfiler(p)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	sink := &countSink{}
	e.AttachSink(sink)
	e.Advance(4)
	if sink.n.Load() == 0 {
		t.Fatal("sink never consumed a segment")
	}

	pp := p.Snapshot()
	if pp.Steps != 4 {
		t.Fatalf("profiled steps = %d, want 4", pp.Steps)
	}
	if len(pp.Nanos) != 4 {
		t.Fatalf("snapshot covers %d shards, want 4", len(pp.Nanos))
	}
	for s := 0; s < 4; s++ {
		for ph := 0; ph < obs.NumPhases; ph++ {
			if pp.Nanos[s][ph] <= 0 {
				t.Fatalf("shard %d phase %s unrecorded", s, obs.PhaseNames[ph])
			}
		}
	}
	var snap = reg.Snapshot()
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "engine_shard_max_step_nanos" && g.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("imbalance gauge engine_shard_max_step_nanos did not move")
	}
}

// TestForkCacheJournalEvents: GetOrBuild emits one "fork" event per
// lookup with the right disposition.
func TestForkCacheJournalEvents(t *testing.T) {
	var buf bytes.Buffer
	j := zeroJournal(&buf)
	c := NewForkCache(4)
	c.SetJournal(j)
	build := func() (*ForkSource, error) {
		return NewForkSource(forkFixtureBuild(3, 1), DefaultCalibration(), 3, 2)
	}
	if _, hit, err := c.GetOrBuild("k1", build); err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.GetOrBuild("k1", build); err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	if _, _, err := c.GetOrBuild("bad", func() (*ForkSource, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("failing build reported no error")
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `{"type":"fork","prefix":"k1","cache":"build"}
{"type":"fork","prefix":"k1","cache":"hit"}
{"type":"fork","prefix":"bad","cache":"build","err":"boom"}
`
	if got != want {
		t.Fatalf("fork events:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
