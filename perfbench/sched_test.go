package main

import (
	"math"
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	const rate, senders = 400, 2
	dues := schedule(rate, time.Second, senders)
	if len(dues) != senders {
		t.Fatalf("%d senders, want %d", len(dues), senders)
	}
	step := time.Second / rate
	for s, ds := range dues {
		if len(ds) != rate/senders {
			t.Errorf("sender %d has %d requests, want %d", s, len(ds), rate/senders)
		}
		for i, d := range ds {
			// Request k of the phase is due k/rate in, on sender k mod senders.
			k := i*senders + s
			if want := time.Duration(k) * step; d < want-time.Microsecond || d > want+time.Microsecond {
				t.Fatalf("sender %d request %d due at %v, want %v", s, i, d, want)
			}
		}
	}
	// A rate that does not divide the phase still offers rate × duration.
	n := 0
	for _, ds := range schedule(250, 2*time.Second, 3) {
		n += len(ds)
	}
	if n != 500 {
		t.Errorf("250/s over 2s scheduled %d requests, want 500", n)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One sender, a request due every millisecond, each taking 2 ms: every
	// request waits behind the earlier ones.
	dues := schedule(1000, 20*time.Millisecond, 1)
	start := time.Now().Add(leadIn)
	reqs := runOpenLoop(start, dues, func(s, i int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if len(reqs) != 1 || len(reqs[0]) != len(dues[0]) {
		t.Fatalf("ran %d senders, want 1 with %d requests", len(reqs), len(dues[0]))
	}
	lag := lags(reqs)
	for i, r := range reqs[0] {
		if r.sent.Before(r.due) {
			t.Errorf("request %d sent %v before it was due", i, r.due.Sub(r.sent))
		}
		// Request i is due at i ms and cannot finish before 2(i+1) ms.
		if min := time.Duration(i+2) * time.Millisecond; r.latency() < min {
			t.Errorf("request %d: latency %v, want at least %v", i, r.latency(), min)
		}
		// Waiting behind a slow request is latency, not generator lag.
		if i > 0 && lag[i] > 0.5 {
			t.Errorf("request %d: generator lag %.3f ms behind a busy connection", i, lag[i])
		}
	}
}

func TestWindowedSkipsWarmupWindow(t *testing.T) {
	start := time.Now()
	at := func(due, lat time.Duration) request {
		return request{due: start.Add(due), done: start.Add(due + lat)}
	}
	all := func(s, i int) bool { return true }
	reqs := [][]request{{
		at(0, 50*time.Millisecond), // warm-up window, skipped
		at(1100*time.Millisecond, time.Millisecond),
		at(1200*time.Millisecond, 3*time.Millisecond),
		at(2100*time.Millisecond, 5*time.Millisecond),
	}}
	// Window 1 has median 2 ms, window 2 has 5 ms: the median of the two is 3.5.
	if got := windowed(reqs, start, time.Second, 0.5, all); got != 3.5 {
		t.Errorf("windowed median = %v ms, want 3.5", got)
	}
	// A phase shorter than one window keeps its only window.
	if got := windowed([][]request{{at(0, 2*time.Millisecond)}}, start, time.Second, 0.5, all); got != 2 {
		t.Errorf("single-window phase = %v ms, want 2", got)
	}
}

func TestHighestRungFindsTheLastRungThatKeepsUp(t *testing.T) {
	for top := -1; top <= rampTop; top++ {
		probes := 0
		got := highestRung(func(k int) bool {
			probes++
			return k <= top
		})
		if got != top {
			t.Errorf("service keeping up to rung %d: highestRung = %d", top, got)
		}
		if probes > 7 {
			t.Errorf("service keeping up to rung %d: %d rungs run, want at most 7", top, probes)
		}
	}
	if r := rampRate(rampTop); math.Abs(r-13552.53) > 0.01 || rampRate(0) != 100 || math.Abs(rampRate(4)-125) > 1e-9 {
		t.Errorf("ladder runs %g, %g, ..., %g; want 100, 125, ..., 13552.53", rampRate(0), rampRate(4), r)
	}
}
