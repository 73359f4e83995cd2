package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"virtover/internal/core"
	"virtover/internal/obs"
	"virtover/internal/units"
)

// ---- synthetic exactly-linear telemetry ----

// learnRows is a strictly positive coefficient matrix; over the feature
// ranges below every prediction stays positive, so the model's
// nonnegativity clamp never bends the linearity the drift tests rely on.
func learnRows(scale float64) [core.NumTargets]core.Row {
	return [core.NumTargets]core.Row{
		core.TargetDom0CPU: {1 * scale, 0.10 * scale, 0.002 * scale, 0.05 * scale, 0.001 * scale},
		core.TargetHypCPU:  {0.5 * scale, 0.05 * scale, 0.001 * scale, 0.02 * scale, 0.0005 * scale},
		core.TargetPMMem:   {30 * scale, 0.01 * scale, 1.0 * scale, 0, 0},
		core.TargetPMIO:    {2 * scale, 0, 0, 1.1 * scale, 0},
		core.TargetPMBW:    {5 * scale, 0, 0, 0, 1.05 * scale},
	}
}

// learnSamples generates n single-VM samples whose targets are exact
// linear functions of the features under rows, via a deterministic LCG.
// An OLS fit of such a window recovers rows exactly, which makes refit
// outcomes (seed, keep, swap) deterministic instead of noise-dependent.
func learnSamples(rows [core.NumTargets]core.Row, n int, seed uint64) []core.Sample {
	out := make([]core.Sample, n)
	state := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24)
	}
	for i := range out {
		v := units.V(10+80*next(), 64+400*next(), 5+60*next(), 50+900*next())
		out[i] = core.Sample{
			N:       1,
			VMSum:   v,
			Dom0CPU: rows[core.TargetDom0CPU].Apply(v),
			HypCPU:  rows[core.TargetHypCPU].Apply(v),
			PM: units.V(0,
				rows[core.TargetPMMem].Apply(v),
				rows[core.TargetPMIO].Apply(v),
				rows[core.TargetPMBW].Apply(v)),
		}
	}
	return out
}

// ingestLines renders samples as the line-JSON wire format.
func ingestLines(tenant string, samples []core.Sample) string {
	var b strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&b,
			`{"tenant":%q,"n":%d,"vmSum":{"cpu":%g,"mem":%g,"io":%g,"bw":%g},"dom0CPU":%g,"hypCPU":%g,"pm":{"cpu":%g,"mem":%g,"io":%g,"bw":%g}}`+"\n",
			tenant, s.N, s.VMSum.CPU, s.VMSum.Mem, s.VMSum.IO, s.VMSum.BW,
			s.Dom0CPU, s.HypCPU, s.PM.CPU, s.PM.Mem, s.PM.IO, s.PM.BW)
	}
	return b.String()
}

// learnServer builds a server with the background refit loop disabled, so
// tests drive refits deterministically through RefitNow.
func learnServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	opt.RefitInterval = -1
	s, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doReq(t *testing.T, method, url, body, reqID string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, data
}

// ---- satellite: unified error envelope ----

// TestServeErrorEnvelope walks every 4xx/5xx path the service can answer
// — bad requests on each endpoint, unknown tenants and routes, oversized
// batches, a saturated pool, a draining server, a request timeout — and
// asserts each one emits exactly the unified envelope
// {"error":{"code","message","requestId"}} with the X-Request-ID header
// echoed inside.
func TestServeErrorEnvelope(t *testing.T) {
	// The registry matters: blockPool saturates the pool by watching the
	// queue-depth gauge.
	shared, sharedTS := learnServer(t, Options{
		Workers: 1, Queue: 1, IngestMaxLines: 2, IngestMaxBytes: 512, Obs: obs.NewRegistry(),
	})
	// Three minimal lines stay under the 512-byte body bound, so the
	// 2-line batch cap is what trips; the full-width body exceeds the byte
	// bound itself.
	threeLines := strings.Repeat("{\"tenant\": \"t1\"}\n", 3)
	bigBody := ingestLines("t1", learnSamples(learnRows(1), 3, 2)) // > 512 bytes

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		setup      func(t *testing.T) (url string, teardown func())
	}{
		{name: "fit unknown field", method: "POST", path: "/v1/fit",
			body: `{"seed": 1, "sede": 2}`, wantStatus: 400, wantCode: "bad_request"},
		{name: "fit bad method", method: "POST", path: "/v1/fit",
			body: `{"seed": 1, "method": "magic"}`, wantStatus: 400, wantCode: "bad_request"},
		{name: "estimate no guests", method: "POST", path: "/v1/estimate",
			body: `{"model": {"seed": 1}, "guests": []}`, wantStatus: 400, wantCode: "bad_request"},
		{name: "estimate bad version", method: "POST", path: "/v1/estimate",
			body: `{"version": 9, "model": {"seed": 1}, "guests": [{"cpu": 1}]}`, wantStatus: 400, wantCode: "bad_request"},
		{name: "scenario bad kind", method: "POST", path: "/v1/scenario/run",
			body:       `{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a", "workload": {"kind": "cpuu"}}]}`,
			wantStatus: 400, wantCode: "bad_request"},
		{name: "ingest malformed line", method: "POST", path: "/v1/ingest",
			body: `{"tenant": "a"`, wantStatus: 400, wantCode: "bad_request"},
		{name: "ingest unknown field", method: "POST", path: "/v1/ingest",
			body: `{"tenant": "a", "bogus": 1}`, wantStatus: 400, wantCode: "bad_request"},
		{name: "ingest bad tenant id", method: "POST", path: "/v1/ingest",
			body: `{"tenant": "a/b"}`, wantStatus: 400, wantCode: "bad_request"},
		{name: "ingest too many lines", method: "POST", path: "/v1/ingest",
			body: threeLines, wantStatus: 413, wantCode: "payload_too_large"},
		{name: "ingest body too large", method: "POST", path: "/v1/ingest",
			body: bigBody, wantStatus: 413, wantCode: "payload_too_large"},
		{name: "tenant model unknown", method: "GET", path: "/v1/tenants/ghost/model",
			wantStatus: 404, wantCode: "not_found"},
		{name: "tenant model bad id", method: "GET", path: "/v1/tenants/" + strings.Repeat("x", 200) + "/model",
			wantStatus: 400, wantCode: "bad_request"},
		{name: "tenant estimate unknown", method: "POST", path: "/v1/tenants/ghost/estimate",
			body: `{"guests": [{"cpu": 1}]}`, wantStatus: 404, wantCode: "not_found"},
		{name: "tenant estimate no guests", method: "POST", path: "/v1/tenants/ghost/estimate",
			body: `{"guests": []}`, wantStatus: 400, wantCode: "bad_request"},
		{name: "unknown route", method: "GET", path: "/v1/nope",
			wantStatus: 404, wantCode: "not_found"},
		{name: "estimate overflow", method: "POST", path: "/v1/estimate",
			body:       `{"model": {"seed": 1}, "guests": [{"cpu": 1.7e308, "mem": 1.7e308, "io": 1.7e308, "bw": 1.7e308}]}`,
			wantStatus: 400, wantCode: "bad_request"},
		{name: "tenant estimate overflow", method: "POST", path: "/v1/tenants/acme/estimate",
			body:       `{"guests": [{"cpu": 1.7e308, "mem": 1.7e308, "io": 1.7e308, "bw": 1.7e308}]}`,
			wantStatus: 400, wantCode: "bad_request",
			setup: func(t *testing.T) (string, func()) {
				s, ts := learnServer(t, Options{Workers: 1, Queue: 1, Window: 16})
				if _, err := s.Ingest("acme", learnSamples(learnRows(1), 16, 4)); err != nil {
					t.Fatal(err)
				}
				if _, swaps, err := s.RefitNow(context.Background()); err != nil || swaps != 1 {
					t.Fatalf("seed refit: swaps=%d err=%v", swaps, err)
				}
				return ts.URL, func() {}
			}},
		{name: "queue full", method: "POST", path: "/v1/fit",
			body: fitSpec, wantStatus: 429, wantCode: "queue_full",
			setup: func(t *testing.T) (string, func()) {
				release := blockPool(t, shared)
				return sharedTS.URL, release
			}},
		{name: "draining", method: "GET", path: "/v1/healthz",
			wantStatus: 503, wantCode: "draining",
			setup: func(t *testing.T) (string, func()) {
				s, ts := learnServer(t, Options{Workers: 1, Queue: 1})
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
				return ts.URL, func() {}
			}},
		{name: "draining ingest", method: "POST", path: "/v1/ingest",
			body:       ingestLines("t1", learnSamples(learnRows(1), 1, 3)),
			wantStatus: 503, wantCode: "draining",
			setup: func(t *testing.T) (string, func()) {
				s, ts := learnServer(t, Options{Workers: 1, Queue: 1})
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
				return ts.URL, func() {}
			}},
		{name: "timeout", method: "POST", path: "/v1/scenario/run",
			body: `{"seed": 7, "duration": 100000, "pms": [{"name": "p"}],
			        "vms": [{"name": "v", "pm": "p", "workload": {"kind": "cpu", "level": 40}}]}`,
			wantStatus: 504, wantCode: "timeout",
			setup: func(t *testing.T) (string, func()) {
				_, ts := learnServer(t, Options{Workers: 1, Queue: 1, RequestTimeout: time.Millisecond})
				return ts.URL, func() {}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			url := sharedTS.URL
			if c.setup != nil {
				var teardown func()
				url, teardown = c.setup(t)
				defer teardown()
			}
			reqID := "env-" + strings.ReplaceAll(c.name, " ", "-")
			resp, body := doReq(t, c.method, url+c.path, c.body, reqID)
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.wantStatus, body)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("non-envelope error body %s: %v", body, err)
			}
			if env.Error.Code != c.wantCode {
				t.Errorf("code %q, want %q (message %q)", env.Error.Code, c.wantCode, env.Error.Message)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
			if env.Error.RequestID != reqID {
				t.Errorf("envelope requestId %q, want the supplied %q", env.Error.RequestID, reqID)
			}
			if hdr := resp.Header.Get("X-Request-ID"); hdr != env.Error.RequestID {
				t.Errorf("X-Request-ID header %q != envelope requestId %q", hdr, env.Error.RequestID)
			}
		})
	}
}

// ---- satellite: ingestion edge cases + partial-accept contract ----

func getTenants(t *testing.T, url string) tenantsResponse {
	t.Helper()
	resp, body := doReq(t, "GET", url+"/v1/tenants", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/tenants: %d (%s)", resp.StatusCode, body)
	}
	var tr tenantsResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func windowOf(t *testing.T, url, id string) int {
	t.Helper()
	for _, ti := range getTenants(t, url).Tenants {
		if ti.ID == id {
			return ti.WindowSamples
		}
	}
	return -1
}

// TestServeIngestContract pins the partial-accept contract: lines apply
// in order, the first bad line stops the batch with an error naming the
// line and the accepted count, and everything before it stays applied.
func TestServeIngestContract(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := learnServer(t, Options{Workers: 1, Queue: 1, Window: 32, IngestMaxLines: 8, Obs: reg})
	samples := learnSamples(learnRows(1), 8, 9)

	// Happy path: blank-line separated chunks for two tenants.
	body := ingestLines("alpha", samples[:2]) + "\n" + ingestLines("beta", samples[2:3])
	resp, data := doReq(t, "POST", ts.URL+"/v1/ingest", body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d (%s)", resp.StatusCode, data)
	}
	var ir ingestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 3 || ir.Tenants != 2 {
		t.Fatalf("accepted=%d tenants=%d, want 3 and 2", ir.Accepted, ir.Tenants)
	}
	if got := windowOf(t, ts.URL, "alpha"); got != 2 {
		t.Errorf("alpha window = %d, want 2", got)
	}

	// Malformed line mid-batch: the two lines before it stay applied.
	bad := ingestLines("alpha", samples[3:5]) + "{\"tenant\": \"alpha\"\n" + ingestLines("alpha", samples[5:6])
	resp, data = doReq(t, "POST", ts.URL+"/v1/ingest", bad, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed mid-batch: %d, want 400 (%s)", resp.StatusCode, data)
	}
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error.Message, "line 3") || !strings.Contains(env.Error.Message, "accepted 2") {
		t.Errorf("error %q should name line 3 and the 2 accepted samples", env.Error.Message)
	}
	if got := windowOf(t, ts.URL, "alpha"); got != 4 {
		t.Errorf("alpha window = %d after partial accept, want 2+2=4", got)
	}

	// Per-line edge cases, each a fresh one-line batch.
	oneLine := func(line string) (int, string) {
		resp, data := doReq(t, "POST", ts.URL+"/v1/ingest", line, "")
		var env errorEnvelope
		_ = json.Unmarshal(data, &env)
		return resp.StatusCode, env.Error.Message
	}
	lineCases := []struct{ name, line, wantIn string }{
		{"unknown field", `{"tenant": "alpha", "bogus": 1}`, "unknown field"},
		{"trailing data", `{"tenant": "alpha"} {"tenant": "beta"}`, "trailing data"},
		{"bad version", `{"version": 9, "tenant": "alpha"}`, "unsupported version 9"},
		{"empty tenant", `{"tenant": ""}`, "tenant"},
		{"slash tenant", `{"tenant": "a/b"}`, "tenant"},
		{"negative n", `{"tenant": "alpha", "n": -2}`, "n: must be"},
	}
	for _, c := range lineCases {
		if status, msg := oneLine(c.line); status != http.StatusBadRequest || !strings.Contains(msg, c.wantIn) {
			t.Errorf("%s: status %d message %q, want 400 containing %q", c.name, status, msg, c.wantIn)
		}
	}

	// Over the batch line bound: the first 8 lines stay applied, the 9th
	// answers 413.
	before := windowOf(t, ts.URL, "gamma")
	if before != -1 {
		t.Fatalf("gamma already exists")
	}
	nine := ingestLines("gamma", learnSamples(learnRows(1), 9, 10))
	resp, data = doReq(t, "POST", ts.URL+"/v1/ingest", nine, "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("9-line batch: %d, want 413 (%s)", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error.Message, "accepted 8") {
		t.Errorf("413 message %q should report the 8 accepted samples", env.Error.Message)
	}
	if got := windowOf(t, ts.URL, "gamma"); got != 8 {
		t.Errorf("gamma window = %d, want the 8 accepted before the cut", got)
	}

	// Counters mirror the partial-accept contract: every parsed batch
	// counts (the clean one, the malformed one, the six edge cases, the
	// over-cap one), and samples count what was actually applied to
	// windows — including lines accepted before a mid-batch failure.
	if got := s.m.ingestBatches.Value(); got != 9 {
		t.Errorf("serve_ingest_batches_total = %d, want 9 (every parsed batch)", got)
	}
	if got := s.m.ingestSamples.Value(); got != 13 {
		t.Errorf("serve_ingest_samples_total = %d, want 3+2+8=13 applied samples", got)
	}
}

// TestServeTenantEviction: beyond MaxTenants the least-recently-ingesting
// tenant is evicted whole — listing, model and metrics all agree.
func TestServeTenantEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := learnServer(t, Options{Workers: 1, Queue: 1, Window: 8, MaxTenants: 2, Obs: reg})
	samples := learnSamples(learnRows(1), 12, 21)

	for _, id := range []string{"t1", "t2", "t3"} {
		if _, err := s.Ingest(id, samples[:4]); err != nil {
			t.Fatal(err)
		}
	}
	tr := getTenants(t, ts.URL)
	if len(tr.Tenants) != 2 || tr.Tenants[0].ID != "t3" || tr.Tenants[1].ID != "t2" {
		t.Fatalf("tenants after eviction = %+v, want [t3 t2]", tr.Tenants)
	}
	resp, body := doReq(t, "GET", ts.URL+"/v1/tenants/t1/model", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted tenant model: %d, want 404 (%s)", resp.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error.Message, "evicted") {
		t.Errorf("404 message %q should mention eviction", env.Error.Message)
	}

	// Re-ingesting the victim starts from an empty window and evicts the
	// new idlest (t2).
	if _, err := s.Ingest("t1", samples[:1]); err != nil {
		t.Fatal(err)
	}
	if got := windowOf(t, ts.URL, "t1"); got != 1 {
		t.Errorf("recreated t1 window = %d, want a fresh 1", got)
	}
	if got := windowOf(t, ts.URL, "t2"); got != -1 {
		t.Errorf("t2 should now be evicted, has window %d", got)
	}

	if got := s.tenants.evictions.Value(); got != 2 {
		t.Errorf("serve_tenant_evictions_total = %d, want 2", got)
	}
	mresp, prom := doReq(t, "GET", ts.URL+"/metrics", "", "")
	if mresp.StatusCode != http.StatusOK {
		t.Fatal("metrics unavailable")
	}
	for _, series := range []string{"serve_tenants 2", "serve_window_samples 5", "serve_tenant_evictions_total 2"} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// ---- tentpole: refit lifecycle, drift rule, determinism ----

func getTenantModel(t *testing.T, url, id string) (tenantModelResponse, int) {
	t.Helper()
	resp, body := doReq(t, "GET", url+"/v1/tenants/"+id+"/model", "", "")
	var tm tenantModelResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &tm); err != nil {
			t.Fatal(err)
		}
	}
	return tm, resp.StatusCode
}

// TestServeRefitLifecycle drives one tenant through the whole learning
// loop: skip (too few samples), seed (first model), keep (no drift on an
// identical window) and swap (changed workload), checking versions,
// hashes, metrics and the estimate endpoint at each step.
func TestServeRefitLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := learnServer(t, Options{Workers: 1, Queue: 1, Window: 16, Obs: reg})
	ctx := context.Background()
	rowsA, rowsB := learnRows(1), learnRows(3)

	// Below minRefitSamples: the sweep skips the tenant.
	if _, err := s.Ingest("acme", learnSamples(rowsA, minRefitSamples-1, 31)); err != nil {
		t.Fatal(err)
	}
	refits, swaps, err := s.RefitNow(ctx)
	if err != nil || refits != 0 || swaps != 0 {
		t.Fatalf("undersized window: refits=%d swaps=%d err=%v, want 0 0 nil", refits, swaps, err)
	}
	if _, status := getTenantModel(t, ts.URL, "acme"); status != http.StatusNotFound {
		t.Fatalf("model before seed: %d, want 404", status)
	}

	// One more sample crosses the bound: the first refit seeds version 1.
	if _, err := s.Ingest("acme", learnSamples(rowsA, 1, 32)); err != nil {
		t.Fatal(err)
	}
	if refits, swaps, err = s.RefitNow(ctx); err != nil || refits != 1 || swaps != 1 {
		t.Fatalf("seed sweep: refits=%d swaps=%d err=%v, want 1 1 nil", refits, swaps, err)
	}
	tm, status := getTenantModel(t, ts.URL, "acme")
	if status != http.StatusOK || tm.Version != 1 || tm.Samples != minRefitSamples {
		t.Fatalf("seeded model: status=%d version=%d samples=%d", status, tm.Version, tm.Samples)
	}
	m1, err := core.LoadModel(bytes.NewReader(tm.Model))
	if err != nil {
		t.Fatal(err)
	}
	if got := modelHash(m1); got != tm.Hash {
		t.Errorf("served hash %s != hash of served coefficients %s", tm.Hash, got)
	}

	// A clean sweep with nothing new refits nothing.
	if refits, _, _ = s.RefitNow(ctx); refits != 0 {
		t.Fatalf("idle sweep refit %d tenants, want 0", refits)
	}

	// Re-dirtied with an unchanged window, the challenger fit is
	// bit-identical to the incumbent: every paired delta is exactly zero,
	// the CI collapses to [0,0], and the drift rule keeps version 1.
	s.tenants.get("acme").dirty.Store(true)
	if refits, swaps, err = s.RefitNow(ctx); err != nil || refits != 1 || swaps != 0 {
		t.Fatalf("no-drift sweep: refits=%d swaps=%d err=%v, want 1 0 nil", refits, swaps, err)
	}
	if tm2, _ := getTenantModel(t, ts.URL, "acme"); tm2.Version != 1 || tm2.Hash != tm.Hash {
		t.Fatalf("keep changed the model: version=%d hash=%s", tm2.Version, tm2.Hash)
	}

	// The workload shifts: flood the 16-slot window with rowsB telemetry.
	// The incumbent now misses every sample while the challenger is exact,
	// so the swap is certain, not probabilistic.
	if _, err := s.Ingest("acme", learnSamples(rowsB, 16, 33)); err != nil {
		t.Fatal(err)
	}
	if refits, swaps, err = s.RefitNow(ctx); err != nil || refits != 1 || swaps != 1 {
		t.Fatalf("drift sweep: refits=%d swaps=%d err=%v, want 1 1 nil", refits, swaps, err)
	}
	tm3, _ := getTenantModel(t, ts.URL, "acme")
	if tm3.Version != 2 || tm3.Hash == tm.Hash {
		t.Fatalf("drift swap: version=%d hash=%s (incumbent hash %s)", tm3.Version, tm3.Hash, tm.Hash)
	}

	// The tenant estimate uses the swapped model and names it.
	resp, body := doReq(t, "POST", ts.URL+"/v1/tenants/acme/estimate",
		`{"guests": [{"cpu": 40, "mem": 128, "io": 20, "bw": 300}]}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant estimate: %d (%s)", resp.StatusCode, body)
	}
	var er tenantEstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.ModelVersion != 2 || er.ModelHash != tm3.Hash {
		t.Errorf("estimate names model v%d %s, want v2 %s", er.ModelVersion, er.ModelHash, tm3.Hash)
	}
	want := rowsB[core.TargetDom0CPU].Apply(units.V(40, 128, 20, 300))
	if diff := er.Dom0CPU - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("estimate Dom0CPU = %v, want the learned %v", er.Dom0CPU, want)
	}

	// Metrics tell the same story: 3 completed refits, 2 publishes.
	if got := s.m.refits.Value(); got != 3 {
		t.Errorf("serve_refits_total = %d, want 3", got)
	}
	if got := s.m.swaps.Value(); got != 2 {
		t.Errorf("serve_swaps_total = %d, want 2", got)
	}
	if got := s.m.refitErrs.Value(); got != 0 {
		t.Errorf("serve_refit_errors_total = %d, want 0", got)
	}
}

// TestServeRefitNonFinite: 64 valid lines of telemetry at magnitudes of
// 1e160 to 1e300 overflow the regression, so the fit's coefficients are
// not finite. That is a fit error: the refit counts it and publishes
// nothing, and the tenant's model endpoint answers the 404 envelope
// instead of failing to encode NaN.
func TestServeRefitNonFinite(t *testing.T) {
	s, ts := learnServer(t, Options{Workers: 1, Queue: 1, Window: 64, Obs: obs.NewRegistry()})
	var b strings.Builder
	for i := 0; i < 64; i++ {
		m := math.Pow(10, float64(160+i*140/63))
		fmt.Fprintf(&b, `{"tenant":"huge","vmSum":{"cpu":%g,"mem":%g,"io":%g,"bw":%g},"dom0CPU":%g,"hypCPU":%g,"pm":{"cpu":%g,"mem":%g,"io":%g,"bw":%g}}`+"\n",
			m, 2*m+float64(i), 3*m*float64(i%7+1), m*float64(i%5+1), m/3, m/7, m, 2*m, 3*m, 4*m)
	}
	if resp, data := doReq(t, "POST", ts.URL+"/v1/ingest", b.String(), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d (%s)", resp.StatusCode, data)
	}
	if _, swaps, err := s.RefitNow(context.Background()); err != nil || swaps != 0 {
		t.Fatalf("refit: swaps=%d err=%v, want no publish", swaps, err)
	}
	if got := s.m.refitErrs.Value(); got != 1 {
		t.Errorf("serve_refit_errors_total = %d, want 1", got)
	}
	resp, body := doReq(t, "GET", ts.URL+"/v1/tenants/huge/model", "", "")
	var env errorEnvelope
	if resp.StatusCode != http.StatusNotFound || json.Unmarshal(body, &env) != nil || env.Error.Code != "not_found" {
		t.Errorf("model after a non-finite fit: %d %s, want the 404 envelope", resp.StatusCode, body)
	}
}

// TestServeRefitDeterminism: two servers fed the identical telemetry
// sequence make identical drift decisions and publish byte-identical
// models — the service's learning is a pure function of its input stream.
func TestServeRefitDeterminism(t *testing.T) {
	type step struct {
		version uint64
		hash    string
	}
	run := func() []step {
		s, ts := learnServer(t, Options{Workers: 1, Queue: 1, Window: 16})
		var out []step
		for phase, scale := range []float64{1, 1, 2, 2, 5} {
			if _, err := s.Ingest("acme", learnSamples(learnRows(scale), 16, uint64(100+phase))); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.RefitNow(context.Background()); err != nil {
				t.Fatal(err)
			}
			tm, status := getTenantModel(t, ts.URL, "acme")
			if status != http.StatusOK {
				t.Fatalf("phase %d: model status %d", phase, status)
			}
			out = append(out, step{tm.Version, tm.Hash})
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("phase %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The scale-1 refill (same workload) must not have churned the model.
	if a[1].version != a[0].version {
		t.Errorf("identical workload swapped the model: %+v -> %+v", a[0], a[1])
	}
	// The scale changes must both have swapped.
	if a[2].version != a[1].version+1 || a[4].version != a[3].version+1 {
		t.Errorf("workload shifts did not swap: %+v", a)
	}
}

// TestServeHotSwapConsistency is the torn-read proof, meant to run under
// -race (the learn gate does): readers hammer the tenant model and
// estimate endpoints over HTTP while the writer floods the window and
// forces refits. Every response must be internally consistent — the
// served coefficients hash to the served hash, a (version, hash) pair
// never varies between observations, and each reader sees nondecreasing
// versions.
func TestServeHotSwapConsistency(t *testing.T) {
	s, ts := learnServer(t, Options{Workers: 2, Queue: 4, Window: 8})
	const phases = 6
	ctx := context.Background()

	// Phase 1 seeds the model before readers start, so 404s are over.
	if _, err := s.Ingest("hot", learnSamples(learnRows(1), 8, 200)); err != nil {
		t.Fatal(err)
	}
	if _, swaps, err := s.RefitNow(ctx); err != nil || swaps != 1 {
		t.Fatalf("seed: swaps=%d err=%v", swaps, err)
	}

	var (
		mu       sync.Mutex
		reads    int
		byVer    = map[uint64]string{}
		readErrs []string
	)
	record := func(version uint64, hash string) {
		mu.Lock()
		defer mu.Unlock()
		reads++
		if prev, ok := byVer[version]; ok && prev != hash {
			readErrs = append(readErrs, fmt.Sprintf("version %d seen with hashes %s and %s", version, prev, hash))
		}
		byVer[version] = hash
	}
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(readErrs) < 10 {
			readErrs = append(readErrs, fmt.Sprintf(format, args...))
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() { // model readers: coefficients must hash to the served hash
			defer wg.Done()
			var lastVer uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				tm, status := getTenantModel(t, ts.URL, "hot")
				if status != http.StatusOK {
					fail("model read: status %d", status)
					return
				}
				m, err := core.LoadModel(bytes.NewReader(tm.Model))
				if err != nil {
					fail("model read: %v", err)
					return
				}
				if got := modelHash(m); got != tm.Hash {
					fail("torn model: served hash %s, coefficients hash %s", tm.Hash, got)
					return
				}
				if tm.Version < lastVer {
					fail("version went backwards: %d after %d", tm.Version, lastVer)
					return
				}
				lastVer = tm.Version
				record(tm.Version, tm.Hash)
			}
		}()
		wg.Add(1)
		go func() { // estimate readers: prediction provenance is one model
			defer wg.Done()
			body := `{"guests": [{"cpu": 30, "mem": 100, "io": 10, "bw": 200}]}`
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, data := doReq(t, "POST", ts.URL+"/v1/tenants/hot/estimate", body, "")
				if resp.StatusCode != http.StatusOK {
					fail("estimate read: status %d (%s)", resp.StatusCode, data)
					return
				}
				var er tenantEstimateResponse
				if err := json.Unmarshal(data, &er); err != nil {
					fail("estimate read: %v", err)
					return
				}
				record(er.ModelVersion, er.ModelHash)
			}
		}()
	}

	// The writer shifts the workload every phase; each refit is a certain
	// swap, so the version advances under the readers' feet. Between
	// phases it waits for fresh reads, so every version is actually
	// observed mid-hammer rather than the writer lapping the readers.
	for phase := 2; phase <= phases; phase++ {
		if _, err := s.Ingest("hot", learnSamples(learnRows(float64(phase)), 8, uint64(200+phase))); err != nil {
			t.Fatal(err)
		}
		if _, swaps, err := s.RefitNow(ctx); err != nil || swaps != 1 {
			t.Fatalf("phase %d: swaps=%d err=%v", phase, swaps, err)
		}
		target := (phase - 1) * 20
		waitFor(t, "reads under the new model", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return reads >= target || len(readErrs) > 0
		})
	}
	close(done)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, e := range readErrs {
		t.Error(e)
	}
	if len(byVer) < 2 {
		t.Errorf("readers observed %d versions; the hammer never caught a swap", len(byVer))
	}
	for v := range byVer {
		if v < 1 || v > phases {
			t.Errorf("impossible version %d observed", v)
		}
	}
}

// ---- satellite: Options.Normalize ----

func TestOptionsNormalize(t *testing.T) {
	got, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Workers: 4, Queue: 16, CacheSize: 32, ForkCacheSize: 16,
		RequestTimeout: 30 * time.Second, Window: 512, MaxTenants: 1024,
		RefitInterval: 5 * time.Second, DriftBootstrap: 200, DriftConf: 0.9,
		IngestMaxLines: 4096, IngestMaxBytes: 1 << 20,
	}
	got.Log = nil // the discard logger is not comparable to want's nil
	if got != want {
		t.Errorf("Normalize() = %+v\nwant %+v", got, want)
	}

	// Idempotent, and explicit values survive.
	o := Options{Workers: 2, Window: 64, RefitInterval: -1, DriftConf: 0.99}
	n1, err := o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := n1.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Errorf("Normalize not idempotent: %+v vs %+v", n1, n2)
	}
	if n1.Workers != 2 || n1.Window != 64 || n1.RefitInterval != -1 || n1.DriftConf != 0.99 {
		t.Errorf("explicit values overridden: %+v", n1)
	}

	// Invalid knobs are ErrBadConfig from Normalize and NewServer alike.
	bad := []Options{
		{DriftConf: 1.5},
		{DriftConf: -0.1},
		{Refit: core.FitOptions{Method: core.MethodLMS, Ridge: 0.1}},
	}
	for i, o := range bad {
		if _, err := o.Normalize(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad[%d]: Normalize err = %v, want ErrBadConfig", i, err)
		}
		if _, err := NewServer(o); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad[%d]: NewServer err = %v, want ErrBadConfig", i, err)
		}
	}
}

// ---- satellite: healthz + version ----

func TestServeHealthzVersion(t *testing.T) {
	s, ts := learnServer(t, Options{Workers: 3, Queue: 5, Window: 16})

	resp, body := doReq(t, "GET", ts.URL+"/v1/healthz", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d (%s)", resp.StatusCode, body)
	}
	var hz healthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Workers != 3 || hz.Tenants != 0 || hz.WindowSamples != 0 {
		t.Errorf("fresh healthz = %+v", hz)
	}
	if hz.LastRefitAgeSec != -1 {
		t.Errorf("lastRefitAgeSec = %v before any sweep, want -1", hz.LastRefitAgeSec)
	}

	if _, err := s.Ingest("acme", learnSamples(learnRows(1), 10, 51)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RefitNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, body = doReq(t, "GET", ts.URL+"/v1/healthz", "", "")
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Tenants != 1 || hz.WindowSamples != 10 {
		t.Errorf("healthz after ingest = %+v, want 1 tenant / 10 samples", hz)
	}
	if hz.LastRefitAgeSec < 0 || hz.LastRefitAgeSec > 60 {
		t.Errorf("lastRefitAgeSec = %v after a sweep, want a small nonnegative age", hz.LastRefitAgeSec)
	}

	resp, body = doReq(t, "GET", ts.URL+"/v1/version", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version: %d (%s)", resp.StatusCode, body)
	}
	var vr versionResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.API != 1 || vr.Scenario != 1 || vr.Model != 1 {
		t.Errorf("version = %+v, want api/scenario/model all 1", vr)
	}
	if vr.Go == "" {
		t.Error("version missing the Go toolchain")
	}
}

// TestServeRefitLoop: with a positive interval the background loop seeds
// a model with no RefitNow call, and Shutdown stops the loop.
func TestServeRefitLoop(t *testing.T) {
	s, err := NewServer(Options{Workers: 1, Queue: 1, Window: 16, RefitInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", learnSamples(learnRows(1), 10, 61)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "background seed refit", func() bool {
		tn := s.tenants.get("acme")
		return tn != nil && tn.cur.Load() != nil
	})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The loop goroutine is down: its done channel is closed.
	select {
	case <-s.refit.done:
	default:
		t.Error("refit loop still running after Shutdown")
	}
}
