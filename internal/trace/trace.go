// Package trace serializes measurement series to CSV and back, so that
// measurement campaigns, model fitting and trace-driven prediction can run
// as separate program invocations (the paper derives its model from traces
// of the micro-benchmark study and replays RUBiS traces against it).
//
// The format is long-form CSV with one row per (sample, domain):
//
//	time,pm,domain,cpu,mem,io,bw
//
// where domain is a VM name, "Domain-0", "hypervisor" (cpu column only) or
// "host".
package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"virtover/internal/monitor"
	"virtover/internal/sampling"
	"virtover/internal/units"
)

// Domain labels for non-guest rows, shared with the sampling pipeline.
const (
	DomainDom0       = sampling.LabelDom0
	DomainHypervisor = sampling.LabelHypervisor
	DomainHost       = sampling.LabelHost
)

// CSVSink streams samples into long-form CSV, one row per sample, in
// emission order. It is a strictly serial consumer: the embedded
// sampling.Serial adapter feeds it each step's segments in shard order at
// FinishStep, so attached behind the monitor's Meter it records a live
// campaign with no sorting at any shard count. The first write emits the
// header; call Flush (or check Err) when the stream ends.
//
// Rows are encoded with strconv.AppendFloat into one reused []byte buffer
// over a bufio.Writer — no per-field strings, no allocation in steady
// state — and the bytes are identical to what encoding/csv produced
// (same quoting rules, same 'g'/-1 float format, "\n" terminator); the
// golden-trace fixture pins that equivalence.
type CSVSink struct {
	*sampling.Serial
	w     *bufio.Writer
	wrote bool
	err   error
	row   []byte
}

// NewCSVSink builds a CSV-writing sink over w.
func NewCSVSink(w io.Writer) *CSVSink {
	c := &CSVSink{w: bufio.NewWriterSize(w, 1<<15), row: make([]byte, 0, 160)}
	c.Serial = sampling.NewSerial(c.write)
	return c
}

// fieldNeedsQuotes mirrors encoding/csv's rule for Comma=',': quote when
// the field contains a comma, a quote or a line break, starts with a
// space, or is the Postgres-special `\.`.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` || strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// appendField appends one CSV field, quoting exactly like encoding/csv
// with UseCRLF=false (inner quotes doubled, CR/LF kept verbatim).
func appendField(b []byte, field string) []byte {
	if !fieldNeedsQuotes(field) {
		return append(b, field...)
	}
	b = append(b, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			b = append(b, '"', '"')
			continue
		}
		b = append(b, field[i])
	}
	return append(b, '"')
}

// header writes the column header before the first row.
func (c *CSVSink) header() {
	if c.wrote {
		return
	}
	c.wrote = true
	if _, err := c.w.WriteString("time,pm,domain,cpu,mem,io,bw\n"); err != nil {
		c.err = err
	}
}

// writeRow encodes one sample into the reused row buffer and writes it.
func (c *CSVSink) writeRow(s *sampling.Sample) {
	b := c.row[:0]
	b = strconv.AppendFloat(b, s.Time, 'g', -1, 64)
	b = append(b, ',')
	b = appendField(b, s.PM)
	b = append(b, ',')
	b = appendField(b, s.Domain)
	b = append(b, ',')
	b = strconv.AppendFloat(b, s.Util.CPU, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, s.Util.Mem, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, s.Util.IO, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, s.Util.BW, 'g', -1, 64)
	b = append(b, '\n')
	c.row = b
	if _, err := c.w.Write(b); err != nil {
		c.err = err
	}
}

// write encodes one batch of rows through the reused buffer. The first
// error sticks; later samples are dropped.
func (c *CSVSink) write(batch []sampling.Sample) {
	if c.err != nil {
		return
	}
	c.header()
	for i := range batch {
		if c.err != nil {
			return
		}
		c.writeRow(&batch[i])
	}
}

// Flush drains buffered rows and returns the first error seen.
func (c *CSVSink) Flush() error {
	if err := c.w.Flush(); err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}

// Err returns the first error seen without flushing.
func (c *CSVSink) Err() error { return c.err }

// Write encodes a measurement series (as produced by monitor.Script.Run)
// to CSV by replaying it through a CSVSink — the same code path a live
// recording uses.
func Write(w io.Writer, series [][]monitor.Measurement) error {
	sink := NewCSVSink(w)
	monitor.PushSeries(series, sink)
	return sink.Flush()
}

// Read decodes a CSV produced by Write back into a measurement series.
// Samples are grouped by time value in file order; PMs within a sample by
// first appearance.
func Read(r io.Reader) ([][]monitor.Measurement, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if len(rows[0]) != 7 || rows[0][0] != "time" {
		return nil, fmt.Errorf("trace: unexpected header %v", rows[0])
	}
	var series [][]monitor.Measurement
	var curTime float64
	haveTime := false
	// index of PM within the current sample
	var pmIdx map[string]int

	for i, rec := range rows[1:] {
		if len(rec) != 7 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want 7", i+2, len(rec))
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+2, err)
		}
		var vals [4]float64
		for j := 0; j < 4; j++ {
			vals[j], err = strconv.ParseFloat(rec[3+j], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d field %d: %w", i+2, 3+j, err)
			}
		}
		v := units.V(vals[0], vals[1], vals[2], vals[3])
		pm, domain := rec[1], rec[2]

		if !haveTime || t != curTime {
			series = append(series, nil)
			pmIdx = make(map[string]int)
			curTime, haveTime = t, true
		}
		cur := &series[len(series)-1]
		idx, ok := pmIdx[pm]
		if !ok {
			idx = len(*cur)
			pmIdx[pm] = idx
			*cur = append(*cur, monitor.Measurement{Time: t, PM: pm, VMs: make(map[string]units.Vector)})
		}
		m := &(*cur)[idx]
		switch domain {
		case DomainDom0:
			m.Dom0 = v
		case DomainHypervisor:
			m.HypervisorCPU = v.CPU
		case DomainHost:
			m.Host = v
		default:
			m.VMs[domain] = v
		}
	}
	return series, nil
}
