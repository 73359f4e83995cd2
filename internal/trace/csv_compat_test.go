package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"

	"virtover/internal/sampling"
	"virtover/internal/units"
)

// TestCSVSinkMatchesEncodingCSV pins the hand-rolled row encoder to
// encoding/csv byte for byte, across the quoting edge cases (commas,
// quotes, CR/LF, leading spaces, the Postgres `\.` sentinel) and awkward
// float values. The golden fixture covers realistic traces; this covers
// hostile names.
func TestCSVSinkMatchesEncodingCSV(t *testing.T) {
	names := []string{
		"plain", "", "with,comma", `with"quote`, "with\nnewline",
		"with\rcr", " leading-space", "\ttab-start", `\.`, `a\.b`,
		"trailing-space ", `""`, "héllo wörld", " nbsp-start",
	}
	floats := []float64{
		0, 1, -1, 0.1, 1e-9, 1e21, 123456.789, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -2.5e-7, 1.0 / 3.0,
	}

	var samples []sampling.Sample
	for i, name := range names {
		f := floats[i%len(floats)]
		samples = append(samples, sampling.Sample{
			Time:   float64(i) + 0.5,
			PM:     name,
			Domain: names[(i+3)%len(names)],
			Kind:   sampling.KindGuest,
			Util:   units.V(f, floats[(i+1)%len(floats)], floats[(i+2)%len(floats)], -f),
		})
	}

	var got bytes.Buffer
	sink := NewCSVSink(&got)
	writeStep(sink, samples)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.Write([]string{"time", "pm", "domain", "cpu", "mem", "io", "bw"})
	ff := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, s := range samples {
		cw.Write([]string{ff(s.Time), s.PM, s.Domain,
			ff(s.Util.CPU), ff(s.Util.Mem), ff(s.Util.IO), ff(s.Util.BW)})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("CSVSink output diverges from encoding/csv:\n got: %q\nwant: %q",
			got.String(), want.String())
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errShort
	}
	f.n--
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

// TestCSVSinkStickyError checks that a write failure sticks: later samples
// are dropped and both Err and Flush report the first error.
func TestCSVSinkStickyError(t *testing.T) {
	sink := NewCSVSink(&failWriter{n: 0})
	big := make([]sampling.Sample, 4096) // overflow the bufio buffer
	writeStep(sink, big)
	if err := sink.Flush(); err == nil {
		t.Fatal("Flush must surface the write error")
	}
	if err := sink.Err(); err == nil {
		t.Fatal("Err must surface the write error")
	}
}

// writeStep feeds samples to sink as one single-shard step.
func writeStep(sink *CSVSink, samples []sampling.Sample) {
	sink.BeginStep(sampling.StepShape{Shards: 1})
	sink.ConsumeShard(0, samples)
	sink.FinishStep()
}
