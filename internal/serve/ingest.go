package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"virtover/internal/core"
	"virtover/internal/obs"
	"virtover/internal/units"
)

// Telemetry ingestion: POST /v1/ingest accepts line-JSON batches — one
// sample per line, tenant-keyed — and feeds the per-tenant windows the
// refit loop learns from. Each line is decoded with the same strict
// discipline as the scenario envelope (unknown fields are errors, the
// version field is validated, nothing may follow the object) so schema
// mistakes fail loudly at the edge instead of silently training a model
// on garbage. decodeIngestLine (below) does the decoding by hand.
//
// Partial-accept contract (asserted by TestServeIngestContract and
// documented in DESIGN.md §16): lines are applied in order as they parse.
// On the first malformed or over-limit line, processing stops and the
// request fails — but every well-formed line BEFORE it stays applied
// (telemetry ingestion is not transactional; applied samples cannot be
// unwound from the stream). The error message names the failing line
// (1-based) and the number of samples accepted before it, so a client can
// resume from the break without re-sending what landed.

// errTooLarge is mapped to HTTP 413 when a batch exceeds the configured
// line or byte bounds.
var errTooLarge = errors.New("serve: batch too large")

// ingestLine is the wire form of one telemetry sample. It mirrors
// core.Sample with the tenant key and the shared envelope version. The
// tags name the keys decodeIngestLine reads (ingestKeys, vectorKeys).
type ingestLine struct {
	Version int    `json:"version,omitempty"`
	Tenant  string `json:"tenant"`
	// N is the number of co-located VMs behind the sums (default 1).
	N int `json:"n,omitempty"`
	// VMSum is the componentwise sum of the guests' utilization vectors —
	// the in-VM-observable features of the uPredict modeling setup.
	VMSum vectorJSON `json:"vmSum"`
	// Dom0CPU and HypCPU are the measured overhead CPU components.
	Dom0CPU float64 `json:"dom0CPU"`
	HypCPU  float64 `json:"hypCPU"`
	// PM is the measured host utilization.
	PM vectorJSON `json:"pm"`
}

// sample converts the validated wire form.
func (l ingestLine) sample() core.Sample {
	n := l.N
	if n == 0 {
		n = 1
	}
	return core.Sample{
		N:       n,
		VMSum:   units.V(l.VMSum.CPU, l.VMSum.Mem, l.VMSum.IO, l.VMSum.BW),
		Dom0CPU: l.Dom0CPU,
		HypCPU:  l.HypCPU,
		PM:      units.V(l.PM.CPU, l.PM.Mem, l.PM.IO, l.PM.BW),
	}
}

// validate rejects lines that decode but make no sense as telemetry.
func (l ingestLine) validate() error {
	if l.Version != 0 && l.Version != apiVersion {
		return fmt.Errorf("%w: version: unsupported version %d (current %d)", errBadRequest, l.Version, apiVersion)
	}
	if err := validateTenantID(l.Tenant); err != nil {
		return err
	}
	if l.N < 0 {
		return fmt.Errorf("%w: n: must be >= 1 (0 defaults to 1), got %d", errBadRequest, l.N)
	}
	return nil
}

type ingestResponse struct {
	// Accepted counts the samples applied to tenant windows.
	Accepted int `json:"accepted"`
	// Tenants counts the distinct tenants the batch touched.
	Tenants int `json:"tenants"`
}

// ingestBatch applies a line-JSON body under the partial-accept contract.
// It returns the counts applied so far even on error. The sample counter
// mirrors that contract: lines accepted before a mid-batch failure are in
// their windows, so they count.
func (s *Server) ingestBatch(body *bufio.Scanner) (ingestResponse, error) {
	var res ingestResponse
	defer func() {
		s.m.ingestBatches.Inc()
		s.m.ingestSamples.Add(uint64(res.Accepted))
	}()
	seen := map[string]struct{}{}
	lineNo := 0
	tenant := "" // the previous line's tenant, reused while the bytes repeat
	for body.Scan() {
		raw := bytes.TrimSpace(body.Bytes())
		lineNo++
		if len(raw) == 0 {
			continue // blank lines separate client-side chunks; not samples
		}
		if res.Accepted >= s.opt.IngestMaxLines {
			return res, fmt.Errorf("%w: line %d: batch exceeds %d samples (accepted %d; resend the rest in another batch)",
				errTooLarge, lineNo, s.opt.IngestMaxLines, res.Accepted)
		}
		l, err := decodeIngestLine(raw, tenant)
		if err != nil {
			return res, fmt.Errorf("%w: line %d: %v (accepted %d samples before it)",
				errBadRequest, lineNo, err, res.Accepted)
		}
		if err := l.validate(); err != nil {
			return res, fmt.Errorf("line %d: %w (accepted %d samples before it)", lineNo, err, res.Accepted)
		}
		tenant = l.Tenant
		s.tenants.add(l.Tenant, l.sample())
		res.Accepted++
		if _, ok := seen[l.Tenant]; !ok {
			seen[l.Tenant] = struct{}{}
			res.Tenants++
		}
	}
	if err := body.Err(); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return res, fmt.Errorf("%w: body exceeds %d bytes (accepted %d samples before the cut)",
				errTooLarge, maxErr.Limit, res.Accepted)
		}
		if errors.Is(err, bufio.ErrTooLong) {
			return res, fmt.Errorf("%w: line %d exceeds the per-line size bound (accepted %d samples before it)",
				errBadRequest, lineNo+1, res.Accepted)
		}
		return res, fmt.Errorf("%w: reading body: %v", errBadRequest, err)
	}
	return res, nil
}

// maxIngestLineBytes bounds one telemetry line; a single sample is a few
// hundred bytes, so 64 KiB is generous headroom, not a tunable.
const maxIngestLineBytes = 64 << 10

// handleIngest is POST /v1/ingest. Parsing and window appends are cheap
// (no simulation, no fitting), so ingestion runs inline on the connection
// goroutine rather than occupying a compute-pool slot — a telemetry flood
// must not starve fits and scenario runs of workers.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.observe(func() {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			s.writeError(w, r, errDraining)
			return
		}
		// Bodies that declare themselves over the byte bound are rejected
		// whole before any line is applied — a deterministic 413 regardless
		// of where the bound would have cut. MaxBytesReader remains the
		// backstop for chunked bodies with no declared length.
		if r.ContentLength > s.opt.IngestMaxBytes {
			s.writeError(w, r, fmt.Errorf("%w: declared body length %d exceeds %d bytes (nothing applied)",
				errTooLarge, r.ContentLength, s.opt.IngestMaxBytes))
			return
		}
		t0 := s.jr.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.opt.IngestMaxBytes)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 4096), maxIngestLineBytes)
		res, err := s.ingestBatch(sc)
		if s.jr.Enabled() {
			e := obs.Event{
				Type:      "ingest",
				Samples:   res.Accepted,
				Tenants:   res.Tenants,
				RequestID: RequestID(r.Context()),
				DurNanos:  s.jr.Now() - t0,
			}
			if err != nil {
				e.Err = err.Error()
			}
			s.jr.Emit(&e)
		}
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		s.writeJSON(w, r, res)
	})
}

// Ingest appends samples to a tenant's window without going through HTTP
// — the embedding and benchmark path. Samples with N == 0 default to
// N == 1; negative N is rejected. It returns how many samples were
// applied (all of them, unless validation fails first).
func (s *Server) Ingest(tenantID string, samples []core.Sample) (int, error) {
	if err := validateTenantID(tenantID); err != nil {
		return 0, err
	}
	for i, smp := range samples {
		if smp.N < 0 {
			return i, fmt.Errorf("%w: sample %d: n must be >= 1, got %d", errBadRequest, i, smp.N)
		}
		if smp.N == 0 {
			smp.N = 1
		}
		s.tenants.add(tenantID, smp)
	}
	s.m.ingestSamples.Add(uint64(len(samples)))
	return len(samples), nil
}

// The line decoder. Every ingest line has one fixed schema — an object of
// seven keys, two of which hold objects of four numbers — so it is decoded
// by hand instead of by encoding/json's reflection, which cost about three
// times as much per line. decodeIngestLine accepts exactly the lines
// encoding/json accepts (a Decoder with DisallowUnknownFields) and gives
// every field the same float bits:
//
//   - keys match fields under bytes.EqualFold, as encoding/json's folded
//     lookup does, so "TENANT" and "vmſum" (U+017F) match;
//   - an unknown key, at the top level or inside vmSum or pm, is an
//     "unknown field" error;
//   - null leaves a field unchanged; a repeated key overwrites the earlier
//     value, and a repeated vmSum or pm merges into the first;
//   - numbers are checked against the JSON grammar and then parsed by
//     strconv.ParseFloat(lit, 64) or strconv.ParseInt(lit, 10, 64), as
//     encoding/json parses them, so "n": 1.0 and 1e400 are rejected;
//   - a string with no escape and no byte outside printable ASCII is
//     sliced from the line; any other string goes through json.Unmarshal,
//     so escapes, surrogates and invalid UTF-8 read as encoding/json reads
//     them;
//   - the literal null is the zero line (which then fails validation).
//
// One rule is stricter: any byte but whitespace after the object is
// trailing data, where Decoder.More let a trailing ']' or '}' through.
// FuzzIngestLine holds the decoder to the encoding/json decode, kept in
// reference_test.go.

// ingestKeys and vectorKeys are the wire keys, indexed as decodeIngestLine
// and vector dispatch on them.
var (
	ingestKeys = []string{"version", "tenant", "n", "vmSum", "dom0CPU", "hypCPU", "pm"}
	vectorKeys = []string{"cpu", "mem", "io", "bw"}
)

// decodeIngestLine decodes one line. A tenant whose bytes equal reuse is
// returned as reuse itself, so a batch that repeats its tenant allocates no
// string per line.
func decodeIngestLine(line []byte, reuse string) (ingestLine, error) {
	var l ingestLine
	p := lineParser{b: line}
	if !p.null() {
		if err := p.open(); err != nil {
			return l, err
		}
		for first := true; ; first = false {
			k, err := p.member(ingestKeys, first)
			if err != nil {
				return l, err
			}
			if k < 0 {
				break
			}
			switch k { // in ingestKeys order
			case 0:
				err = p.integer(&l.Version)
			case 1:
				err = p.tenant(&l.Tenant, reuse)
			case 2:
				err = p.integer(&l.N)
			case 3:
				err = p.vector(&l.VMSum)
			case 4:
				err = p.float(&l.Dom0CPU)
			case 5:
				err = p.float(&l.HypCPU)
			case 6:
				err = p.vector(&l.PM)
			}
			if err != nil {
				return l, fmt.Errorf("%s: %w", ingestKeys[k], err)
			}
		}
	}
	if p.peek(); p.i < len(p.b) {
		return l, errors.New("trailing data after the sample object")
	}
	return l, nil
}

// lineParser is a cursor over one line.
type lineParser struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the byte at the cursor, or 0 at
// the end of the line.
func (p *lineParser) peek() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// want reports that the byte at the cursor does not start what the
// grammar wants there.
func (p *lineParser) want(what string) error {
	if p.i >= len(p.b) {
		return fmt.Errorf("unexpected end of line, want %s", what)
	}
	return fmt.Errorf("byte %d: found %q, want %s", p.i+1, p.b[p.i], what)
}

// null consumes a null literal, reporting whether there was one.
func (p *lineParser) null() bool {
	if p.peek() == 'n' && len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// open consumes the '{' that starts an object.
func (p *lineParser) open() error {
	if p.peek() != '{' {
		return p.want("an object or null")
	}
	p.i++
	return nil
}

// member steps to the next member of an object whose '{' is consumed. It
// reads the key and its ':' and returns the key's index in keys, or -1
// once it has consumed the closing '}'. first marks the first call.
func (p *lineParser) member(keys []string, first bool) (int, error) {
	c := p.peek()
	if c == '}' {
		p.i++
		return -1, nil
	}
	if !first {
		if c != ',' {
			return 0, p.want("',' or '}' after an object member")
		}
		p.i++
		c = p.peek()
	}
	if c != '"' {
		return 0, p.want("an object key")
	}
	key, err := p.str()
	if err != nil {
		return 0, err
	}
	if p.peek() != ':' {
		return 0, p.want("':' after an object key")
	}
	p.i++
	for k, name := range keys {
		if strings.EqualFold(string(key), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown field %q", key)
}

// str reads the string token whose opening quote is at the cursor and
// returns its value.
func (p *lineParser) str() ([]byte, error) {
	start, plain := p.i, true
	for i := start + 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			p.i = i + 1
			if plain {
				return p.b[start+1 : i], nil
			}
			var s string
			if err := json.Unmarshal(p.b[start:p.i], &s); err != nil {
				return nil, errors.New(strings.TrimPrefix(err.Error(), "json: "))
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			i++ // an escaped byte never closes the string
		case c < ' ' || c > '~':
			plain = false
		}
	}
	p.i = len(p.b)
	return nil, p.want("the string's closing '\"'")
}

// tenant reads a string or null into dst.
func (p *lineParser) tenant(dst *string, reuse string) error {
	if p.null() {
		return nil
	}
	if p.peek() != '"' {
		return p.want("a string or null")
	}
	b, err := p.str()
	if err != nil {
		return err
	}
	if string(b) == reuse {
		*dst = reuse
	} else {
		*dst = string(b)
	}
	return nil
}

// vector reads an object of the four vectorKeys numbers, or null, into v.
func (p *lineParser) vector(v *vectorJSON) error {
	if p.null() {
		return nil
	}
	if err := p.open(); err != nil {
		return err
	}
	dst := [...]*float64{&v.CPU, &v.Mem, &v.IO, &v.BW} // in vectorKeys order
	for first := true; ; first = false {
		k, err := p.member(vectorKeys, first)
		if err != nil || k < 0 {
			return err
		}
		if err := p.float(dst[k]); err != nil {
			return fmt.Errorf("%s: %w", vectorKeys[k], err)
		}
	}
}

// float reads a number or null into dst.
func (p *lineParser) float(dst *float64) error {
	if p.null() {
		return nil
	}
	lit, err := p.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into float64", lit)
	}
	*dst = v
	return nil
}

// integer reads an integer or null into dst.
func (p *lineParser) integer(dst *int) error {
	if p.null() {
		return nil
	}
	lit, err := p.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into int", lit)
	}
	*dst = int(v)
	return nil
}

// number reads the number token at the cursor, checked against the JSON
// grammar -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its
// literal.
func (p *lineParser) number() ([]byte, error) {
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		p.i = i
		return nil, p.want("a number or null")
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			p.i = i
			return nil, p.want("a digit after the decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			p.i = i
			return nil, p.want("a digit in the exponent")
		}
		i = j
	}
	p.i = i
	return b[start:i], nil
}

// digits returns the end of the run of decimal digits that starts at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
