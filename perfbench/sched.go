package main

import (
	"math"
	"sync"
	"time"
)

// The open-loop load generator. Requests are due at even steps, request k
// of a phase k/rate after its start, so no request waits behind another
// unless the service is slower than the offered rate. time.Sleep overshoots
// by about a millisecond, which is as long as a request takes, so a sender
// sleeps until shortly before the due time and spins the last stretch.

// leadIn is how long after it is scheduled a phase starts, so that its
// first request is not due before its sender is ready.
const leadIn = 10 * time.Millisecond

// schedule spreads rate requests per second evenly over dur and deals them
// round-robin to senders, so senders take turns. It returns each sender's
// due offsets, in order.
func schedule(rate float64, dur time.Duration, senders int) [][]time.Duration {
	out := make([][]time.Duration, senders)
	n := int(math.Round(rate * dur.Seconds()))
	for k := 0; k < n; k++ {
		due := time.Duration(float64(k) / rate * float64(time.Second))
		out[k%senders] = append(out[k%senders], due)
	}
	return out
}

// waitUntil returns at t. It sleeps while more than sleepSlack remains and
// spins for the rest: a yielding spin queues behind the server's
// goroutines and wakes late.
func waitUntil(t time.Time) {
	const sleepSlack = 1500 * time.Microsecond
	if d := time.Until(t); d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Now().Before(t) {
	}
}

// request is one open-loop request's timing.
type request struct {
	sender, index int
	due           time.Time
	sent, done    time.Time
	err           error
}

// latency is the time from the due time to the response: it includes any
// wait a slow earlier request imposed.
func (r request) latency() time.Duration { return r.done.Sub(r.due) }

// lag is how late the generator itself sent the request: the delay after
// the request was due and its connection was free.
func (r request) lag(prevDone time.Time) time.Duration {
	ready := r.due
	if prevDone.After(ready) {
		ready = prevDone
	}
	return r.sent.Sub(ready)
}

// runOpenLoop runs every sender's schedule from start, one goroutine per
// sender, and returns each sender's requests in order. do issues sender s's
// i-th request.
func runOpenLoop(start time.Time, dues [][]time.Duration, do func(s, i int) error) [][]request {
	out := make([][]request, len(dues))
	var wg sync.WaitGroup
	for s := range dues {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			reqs := make([]request, len(dues[s]))
			for i, off := range dues[s] {
				due := start.Add(off)
				waitUntil(due)
				r := request{sender: s, index: i, due: due, sent: time.Now()}
				r.err = do(s, i)
				r.done = time.Now()
				reqs[i] = r
			}
			out[s] = reqs
		}(s)
	}
	wg.Wait()
	return out
}

// lags returns the generator lag of every request, in milliseconds.
func lags(reqs [][]request) []float64 {
	var out []float64
	for _, rs := range reqs {
		var prev time.Time
		for _, r := range rs {
			out = append(out, ms(r.lag(prev)))
			prev = r.done
		}
	}
	return out
}

// windowed returns the median over windows of the q-quantile of the
// latencies of the requests due in each window, skipping the first window
// (connections and caches warming up) unless it is the only one. keep
// selects the requests.
func windowed(reqs [][]request, start time.Time, window time.Duration, q float64, keep func(s, i int) bool) float64 {
	var byWin [][]float64
	for s, rs := range reqs {
		for i, r := range rs {
			if !keep(s, i) {
				continue
			}
			w := int(r.due.Sub(start) / window)
			for len(byWin) <= w {
				byWin = append(byWin, nil)
			}
			byWin[w] = append(byWin[w], ms(r.latency()))
		}
	}
	first := 1
	if len(byWin) == 1 {
		first = 0
	}
	var per []float64
	for w := first; w < len(byWin); w++ {
		if len(byWin[w]) > 0 {
			per = append(per, quantile(byWin[w], q))
		}
	}
	return median(per)
}
