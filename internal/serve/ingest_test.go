package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
)

// TestIngestBatchAllocs pins the allocations of a 32-line one-tenant
// batch, scanner included: the reader, the scanner and its buffer, and the
// tenant's string once per batch. Decoding a line allocates nothing, and
// the tenant string is reused while the lines repeat it.
func TestIngestBatchAllocs(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Queue: 1, RefitInterval: -1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	body := []byte(ingestLines("t0001", learnSamples(learnRows(1), 32, 7)))
	batch := func() {
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 4096), maxIngestLineBytes)
		if res, err := s.ingestBatch(sc); err != nil || res.Accepted != 32 {
			t.Fatalf("batch: accepted %d, err %v", res.Accepted, err)
		}
	}
	batch() // the tenant and its window exist before the count
	if allocs := testing.AllocsPerRun(20, batch); allocs > 4 {
		t.Errorf("32-line one-tenant batch: %v allocs, want <= 4", allocs)
	}
}

// FuzzIngestLine holds decodeIngestLine to the encoding/json decode it
// replaced (refDecodeIngestLine): both must accept or reject every line
// alike and, on accept, yield the same tenant, integers and float bits.
// The one allowed difference is a line whose object is followed by ']' or
// '}', which the reference lets through and decodeIngestLine rejects as
// trailing data. The seed corpus in testdata/fuzz/FuzzIngestLine replays
// under plain go test; make fuzz-smoke explores beyond it.
func FuzzIngestLine(f *testing.F) {
	f.Add([]byte(`{"tenant":"t0001","n":1,"vmSum":{"cpu":41.5,"mem":180,"io":12,"bw":300},"dom0CPU":6.1,"hypCPU":2.2,"pm":{"cpu":0,"mem":212,"io":15,"bw":320}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		want, end, werr := refDecodeIngestLine(line)
		got, gerr := decodeIngestLine(line, "")
		switch {
		case werr != nil && gerr != nil:
			return
		case werr != nil:
			t.Fatalf("%q: decodeIngestLine accepted %+v, reference rejected: %v", line, got, werr)
		case gerr != nil:
			if trailingBracket(line, end) && gerr.Error() == "trailing data after the sample object" {
				return
			}
			t.Fatalf("%q: decodeIngestLine rejected (%v), reference accepted %+v", line, gerr, want)
		}
		if d := diffLines(got, want); d != "" {
			t.Fatalf("%q: %s", line, d)
		}
		// The tenant-reuse path returns the same line.
		if again, err := decodeIngestLine(line, want.Tenant); err != nil || again != got {
			t.Fatalf("%q: with reuse %q: %+v, %v; want %+v", line, want.Tenant, again, err, got)
		}
		if verr, rerr := got.validate(), want.validate(); (verr == nil) != (rerr == nil) {
			t.Fatalf("%q: validate %v, reference validate %v", line, verr, rerr)
		}
	})
}

// trailingBracket reports whether the first byte past JSON whitespace at
// line[end:] is ']' or '}'.
func trailingBracket(line []byte, end int64) bool {
	rest := bytes.TrimLeft(line[end:], " \t\r\n")
	return len(rest) > 0 && (rest[0] == ']' || rest[0] == '}')
}

// diffLines compares two decoded lines field by field, floats by their
// bits, and describes the first difference ("" when there is none).
func diffLines(got, want ingestLine) string {
	if got.Version != want.Version || got.Tenant != want.Tenant || got.N != want.N {
		return fmt.Sprintf("version/tenant/n %d %q %d, want %d %q %d",
			got.Version, got.Tenant, got.N, want.Version, want.Tenant, want.N)
	}
	g := [...]float64{got.VMSum.CPU, got.VMSum.Mem, got.VMSum.IO, got.VMSum.BW, got.Dom0CPU, got.HypCPU,
		got.PM.CPU, got.PM.Mem, got.PM.IO, got.PM.BW}
	w := [...]float64{want.VMSum.CPU, want.VMSum.Mem, want.VMSum.IO, want.VMSum.BW, want.Dom0CPU, want.HypCPU,
		want.PM.CPU, want.PM.Mem, want.PM.IO, want.PM.BW}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Sprintf("float field %d: bits %#x, want %#x", i, math.Float64bits(g[i]), math.Float64bits(w[i]))
		}
	}
	return ""
}
