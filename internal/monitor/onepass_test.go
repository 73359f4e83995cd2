package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"virtover/internal/sampling"
	"virtover/internal/units"
)

// genSteps generates one campaign's steps in the engine's emission order:
// 1–6 PMs with 0–3 guests each, 1–5 steps at strictly increasing times.
// Each row is then dropped with one of the probabilities 0, 0.05, 0.2 or
// 0.5, and adjacent rows are sometimes swapped or a row repeated, so most
// campaigns hand the stages PM groups a filter split, and some hand them a
// group with two host rows.
func genSteps(rng *rand.Rand) [][]sampling.Sample {
	nPM := 1 + rng.Intn(6)
	guests := make([][]string, nPM)
	for p := range guests {
		// Arrival order is not name order, so screen order matters.
		for _, g := range rng.Perm(rng.Intn(4)) {
			guests[p] = append(guests[p], fmt.Sprintf("vm%d-%c", p, 'a'+g))
		}
	}
	drop := []float64{0, 0.05, 0.2, 0.5}[rng.Intn(4)]
	swap := []float64{0, 0, 0.05, 0.2}[rng.Intn(4)] // a quarter as many repeats
	util := func() units.Vector {
		return units.V(100*rng.Float64(), 1024*rng.Float64(), 50*rng.Float64(), 2000*rng.Float64())
	}
	steps := make([][]sampling.Sample, 1+rng.Intn(5))
	for st := range steps {
		tm := float64(st + 1)
		var rows []sampling.Sample
		for p, names := range guests {
			pm := fmt.Sprintf("pm%d", p)
			for g, name := range names {
				rows = append(rows, sampling.Sample{Time: tm, PMID: p, PM: pm, VMID: 4*p + g,
					Domain: name, Kind: sampling.KindGuest, Util: util()})
			}
			rows = append(rows,
				sampling.Sample{Time: tm, PMID: p, PM: pm, VMID: -1, Domain: sampling.LabelDom0, Kind: sampling.KindDom0, Util: util()},
				sampling.Sample{Time: tm, PMID: p, PM: pm, VMID: -1, Domain: sampling.LabelHypervisor, Kind: sampling.KindHypervisor, Util: units.V(10*rng.Float64(), 0, 0, 0)},
				sampling.Sample{Time: tm, PMID: p, PM: pm, VMID: -1, Domain: sampling.LabelHost, Kind: sampling.KindHost, Util: util()})
		}
		var kept []sampling.Sample
		for _, r := range rows {
			if rng.Float64() >= drop {
				kept = append(kept, r)
			}
			if rng.Float64() < swap/4 {
				kept = append(kept, r)
			}
		}
		for i := 0; i+1 < len(kept); i++ {
			if rng.Float64() < swap {
				kept[i], kept[i+1] = kept[i+1], kept[i]
			}
		}
		steps[st] = kept
	}
	return steps
}

// cutStep splits a step's rows into shards contiguous segments (some may
// be empty), cutting only where no PM has rows on both sides, so the
// segments are PM-disjoint as the step contract requires.
func cutStep(rng *rand.Rand, rows []sampling.Sample, shards int) [][]sampling.Sample {
	last := map[int]int{}
	for i, r := range rows {
		last[r.PMID] = i
	}
	at := []int{0, len(rows)}
	reach := -1
	for i, r := range rows {
		if i > 0 && reach < i {
			at = append(at, i)
		}
		reach = max(reach, last[r.PMID])
	}
	cuts := []int{0, len(rows)}
	for s := 1; s < shards; s++ {
		cuts = append(cuts, at[rng.Intn(len(at))])
	}
	sort.Ints(cuts)
	segs := make([][]sampling.Sample, shards)
	for s := range segs {
		segs[s] = rows[cuts[s]:cuts[s+1]]
	}
	return segs
}

// driveStep delivers one step to sink under the step contract, calling
// ConsumeShard for every shard concurrently when concurrent is set.
func driveStep(sink sampling.Sink, tm float64, maxPMID int, segs [][]sampling.Sample, concurrent bool) {
	sink.BeginStep(sampling.StepShape{Shards: len(segs), Time: tm, MaxPMID: maxPMID})
	var wg sync.WaitGroup
	for s, seg := range segs {
		if !concurrent {
			sink.ConsumeShard(s, seg)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink.ConsumeShard(s, seg)
		}()
	}
	wg.Wait()
	sink.FinishStep()
}

// TestOnePassMatchesReplay holds the one-pass Meter and Collector to the
// deferred-replay machines they replaced (reference_test.go) over
// generated campaigns at shards {1,2,3}: the Meter's measured stream, and
// the Collector's series and in-progress row, must be equal. The one-pass
// stages take each step's shards concurrently; the references take them
// serially.
func TestOnePassMatchesReplay(t *testing.T) {
	var steps, irregular int
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		campaign := genSteps(rng)
		for _, shards := range []int{1, 2, 3} {
			got, want := newRecordSink(), newRecordSink()
			m, ref := NewMeter(DefaultNoise(), seed, got), newRefMeter(DefaultNoise(), seed, want)
			c, refC := NewCollector(), newRefCollector()
			for st, rows := range campaign {
				const maxPMID = 5 // genSteps makes at most six PMs
				segs, tm := cutStep(rng, rows, shards), float64(st+1)
				driveStep(m, tm, maxPMID, segs, true)
				driveStep(ref, tm, maxPMID, segs, false)
				driveStep(c, tm, maxPMID, segs, true)
				driveStep(refC, tm, maxPMID, segs, false)
				steps++
				for _, seg := range segs {
					if !refCanonicalSegment(seg) {
						irregular++
						break
					}
				}
			}
			if !reflect.DeepEqual(got.samples, want.samples) {
				t.Fatalf("seed %d, shards %d: measured stream differs from the replay's\n got %+v\nwant %+v",
					seed, shards, got.samples, want.samples)
			}
			if !reflect.DeepEqual(c.series, refC.series) || !reflect.DeepEqual(c.row, refC.row) {
				t.Fatalf("seed %d, shards %d: collected series differs from the replay's\n got %+v + %+v\nwant %+v + %+v",
					seed, shards, c.series, c.row, refC.series, refC.row)
			}
		}
	}
	// The generator must reach both the in-place and the split paths.
	if irregular == 0 || irregular == steps {
		t.Fatalf("%d of %d generated steps irregular; want some of each", irregular, steps)
	}
	t.Logf("%d steps, %d with a split PM group", steps, irregular)
}
