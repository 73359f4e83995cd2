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
	"runtime/debug"
	"strings"

	"virtover/internal/core"
	"virtover/internal/exps"
	"virtover/internal/monitor"
	"virtover/internal/scenario"
	"virtover/internal/units"
	"virtover/internal/xen"
)

// The request envelope mirrors the scenario package's contract: every
// request body carries an optional "version" (default 1), is decoded
// strictly (unknown fields are errors), and malformed inputs answer 400
// with a field-naming message. POST /v1/scenario/run accepts the scenario
// envelope itself — the same JSON document cmd/xensim reads from disk.

// apiVersion is the accepted request-envelope version.
const apiVersion = 1

// errBadRequest wraps every request-decoding failure (mapped to 400).
var errBadRequest = errors.New("serve: bad request")

// errNotFound wraps lookups of resources that do not exist — unknown
// tenants, tenants with no fitted model yet, unrouted paths (mapped to
// 404).
var errNotFound = errors.New("serve: not found")

// modelSpec names a fitted model by its training inputs. It is the JSON
// form of modelKey plus the version field of the shared envelope.
type modelSpec struct {
	Version int `json:"version,omitempty"`
	// Seed drives the training campaigns.
	Seed int64 `json:"seed"`
	// Samples is samplesPerRun of the training campaigns (<= 0 selects
	// the library's fast default).
	Samples int `json:"samples,omitempty"`
	// Method is "ols" (default) or "lms".
	Method string `json:"method,omitempty"`
	// Ridge is the optional L2 penalty (OLS only).
	Ridge float64 `json:"ridge,omitempty"`
}

func (r modelSpec) key() (modelKey, core.FitOptions, error) {
	if r.Version != 0 && r.Version != apiVersion {
		return modelKey{}, core.FitOptions{}, fmt.Errorf("%w: version: unsupported version %d (current %d)", errBadRequest, r.Version, apiVersion)
	}
	var method core.Method
	switch strings.ToLower(r.Method) {
	case "", "ols":
		method = core.MethodOLS
	case "lms":
		method = core.MethodLMS
	default:
		return modelKey{}, core.FitOptions{}, fmt.Errorf("%w: method: unknown method %q (want \"ols\" or \"lms\")", errBadRequest, r.Method)
	}
	opt := core.FitOptions{Method: method, Ridge: r.Ridge}
	if err := opt.Validate(); err != nil {
		return modelKey{}, core.FitOptions{}, err
	}
	samples := r.Samples
	if samples < 0 {
		samples = 0
	}
	return modelKey{Seed: r.Seed, Samples: samples, Method: method, Ridge: r.Ridge}, opt, nil
}

func (k modelKey) spec() modelSpec {
	method := "ols"
	if k.Method == core.MethodLMS {
		method = "lms"
	}
	return modelSpec{Seed: k.Seed, Samples: k.Samples, Method: method, Ridge: k.Ridge}
}

// vectorJSON is a resource vector with lowercase JSON keys (units.Vector
// has none).
type vectorJSON struct {
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
	IO  float64 `json:"io"`
	BW  float64 `json:"bw"`
}

func toVectorJSON(v units.Vector) vectorJSON {
	return vectorJSON{CPU: v.CPU, Mem: v.Mem, IO: v.IO, BW: v.BW}
}

type estimateRequest struct {
	Version int       `json:"version,omitempty"`
	Model   modelSpec `json:"model"`
	// Guests are the co-located guests' utilization vectors.
	Guests []vectorJSON `json:"guests"`
}

type estimateResponse struct {
	// Dom0CPU and HypCPU are the predicted overhead components (Eq. 1-3).
	Dom0CPU float64 `json:"dom0CPU"`
	HypCPU  float64 `json:"hypCPU"`
	// PM is the predicted host utilization.
	PM vectorJSON `json:"pm"`
	// CacheHit reports whether the model came from the LRU cache.
	CacheHit bool `json:"cacheHit"`
}

type measurementJSON struct {
	PM            string                `json:"pm"`
	VMs           map[string]vectorJSON `json:"vms"`
	Dom0          vectorJSON            `json:"dom0"`
	HypervisorCPU float64               `json:"hypervisorCPU"`
	Host          vectorJSON            `json:"host"`
}

type scenarioRunResponse struct {
	Samples int               `json:"samples"`
	Average []measurementJSON `json:"average"`
}

type modelsResponse struct {
	// Models lists the cached fitted models, most recently used first.
	Models []modelSpec `json:"models"`
}

// errorEnvelope is the unified error body. Every error response from
// every endpoint — 4xx and 5xx alike — is exactly this shape, so clients
// and log pipelines parse one schema no matter which path failed.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	// Code is the stable, machine-readable classification (codeFor). New
	// codes may appear; existing ones do not change meaning.
	Code string `json:"code"`
	// Message is the human-readable detail, naming the offending field or
	// line where possible. Not stable; do not parse it.
	Message string `json:"message"`
	// RequestID echoes the request's correlation id — the same value as
	// the X-Request-ID response header — so an error body quoted in a bug
	// report links straight to the journal's "serve" event.
	RequestID string `json:"requestId"`
}

// codeFor maps an HTTP status to the envelope's stable error code.
func codeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "draining"
	case http.StatusGatewayTimeout:
		return "timeout"
	case 499:
		return "client_closed"
	default:
		return "internal"
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/fit", s.handleFit)
	s.mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /v1/scenario/run", s.handleScenarioRun)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /v1/tenants/{id}/model", s.handleTenantModel)
	s.mux.HandleFunc("POST /v1/tenants/{id}/estimate", s.handleTenantEstimate)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Fallback: unrouted paths answer the envelope, not the stdlib's
	// plain-text 404.
	s.mux.HandleFunc("/", s.handleNotFound)
}

// decodeStrict decodes one JSON document into v, rejecting unknown fields
// and trailing data, mirroring scenario.Parse: only whitespace may follow
// the document, so the next token must be io.EOF.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %s", errBadRequest, strings.TrimPrefix(err.Error(), "json: "))
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after request document", errBadRequest)
	}
	return nil
}

// statusFor maps service errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errNotFound):
		return http.StatusNotFound
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errBadRequest),
		errors.Is(err, scenario.ErrBadScenario),
		errors.Is(err, core.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; nobody reads this. 499 follows the nginx
		// convention for "client closed request".
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	s.m.errs.Inc()
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: errorDetail{
		Code:      codeFor(status),
		Message:   err.Error(),
		RequestID: RequestID(r.Context()),
	}})
	s.log.Debug("request failed", "req", RequestID(r.Context()), "path", r.URL.Path, "status", status, "err", err)
}

// writeJSON answers 200 with v as one line of JSON. It encodes before it
// writes, so a value the encoder rejects answers the error envelope instead
// of a 200 with no body.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, r, fmt.Errorf("encoding the response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(data, '\n'))
}

// checkEstimate rejects a prediction that is not finite: guests of extreme
// magnitude can carry a finite model's output past the float64 range, and
// JSON has no number for the result.
func checkEstimate(p core.Prediction) error {
	for _, v := range [...]float64{p.Dom0CPU, p.HypCPU, p.PM.CPU, p.PM.Mem, p.PM.IO, p.PM.BW} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: guests: the estimate is not a finite number (guest utilizations too large)", errBadRequest)
		}
	}
	return nil
}

// observe wraps a compute handler with the request counter and the
// admission-to-response latency histogram.
func (s *Server) observe(fn func()) {
	s.m.requests.Inc()
	if !s.m.reg.Enabled() {
		fn()
		return
	}
	start := s.m.reg.Now()
	fn()
	s.m.latency.Observe(s.m.reg.Now() - start)
}

// fitForSpec resolves a model spec against the cache, fitting on miss.
// Must run on a pool worker: a miss executes the full training pipeline.
func (s *Server) fitForSpec(ctx context.Context, key modelKey, opt core.FitOptions) (*core.Model, bool, error) {
	if m, ok := s.cache.Get(key); ok {
		s.m.cacheHits.Inc()
		return m, true, nil
	}
	s.m.cacheMisses.Inc()
	m, err := exps.FitModelContext(ctx, key.Seed, key.Samples, opt)
	if err != nil {
		return nil, false, err
	}
	s.cache.Add(key, m)
	return m, false, nil
}

// fitCall is one in-flight fit that concurrent identical requests wait on
// instead of occupying their own worker slots.
type fitCall struct {
	done  chan struct{}
	model *core.Model
	err   error
}

// fitModel resolves a model with singleflight collapsing: a cached model
// answers immediately; otherwise the first caller for a key becomes the
// leader, runs the fit on the worker pool, and every concurrent identical
// request waits on that one run — before execute, so a burst of N equal
// fits consumes one worker slot, not N. Waiters share the leader's result
// (or error; failed fits are not cached, so the next request retries) and
// report hit=true: their model came from memory, not their own fit. The
// serve_coalesced counter counts the waiters.
func (s *Server) fitModel(ctx context.Context, key modelKey, opt core.FitOptions) (*core.Model, bool, error) {
	if m, ok := s.cache.Get(key); ok {
		s.m.cacheHits.Inc()
		return m, true, nil
	}
	s.fitMu.Lock()
	if c, ok := s.fits[key]; ok {
		s.fitMu.Unlock()
		s.m.coalesced.Inc()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if c.err != nil {
			return nil, false, c.err
		}
		return c.model, true, nil
	}
	c := &fitCall{done: make(chan struct{})}
	s.fits[key] = c
	s.fitMu.Unlock()

	var (
		m   *core.Model
		hit bool
		run error
	)
	err := s.execute(ctx, func(ctx context.Context) {
		m, hit, run = s.fitForSpec(ctx, key, opt)
	})
	if err == nil {
		err = run
	}
	c.model, c.err = m, err
	s.fitMu.Lock()
	delete(s.fits, key)
	s.fitMu.Unlock()
	close(c.done)
	if err != nil {
		return nil, false, err
	}
	return m, hit, nil
}

// handleFit trains (or recalls) a model and returns it in exactly the
// bytes core.SaveModel writes, so a served fit is bit-identical to a
// library fit of the same inputs.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	s.observe(func() {
		var req modelSpec
		if err := decodeStrict(r, &req); err != nil {
			s.writeError(w, r, err)
			return
		}
		key, opt, err := req.key()
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
		defer cancel()
		m, hit, err := s.fitModel(ctx, key, opt)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		// Serialization is cheap; only the fit itself runs on the pool.
		var buf bytes.Buffer
		if err := core.SaveModel(&buf, m); err != nil {
			s.writeError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", cacheHeader(hit))
		_, _ = w.Write(buf.Bytes())
	})
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handleEstimate fits (or recalls) a model and applies it to the guests'
// utilization vectors — the paper's placement question as one round trip.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.observe(func() {
		var req estimateRequest
		if err := decodeStrict(r, &req); err != nil {
			s.writeError(w, r, err)
			return
		}
		if req.Version != 0 && req.Version != apiVersion {
			s.writeError(w, r, fmt.Errorf("%w: version: unsupported version %d (current %d)", errBadRequest, req.Version, apiVersion))
			return
		}
		if len(req.Guests) == 0 {
			s.writeError(w, r, fmt.Errorf("%w: guests: at least one guest is required", errBadRequest))
			return
		}
		key, opt, err := req.Model.key()
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
		defer cancel()
		m, hit, err := s.fitModel(ctx, key, opt)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		guests := make([]units.Vector, len(req.Guests))
		for i, g := range req.Guests {
			guests[i] = units.V(g.CPU, g.Mem, g.IO, g.BW)
		}
		// Predict is a handful of dot products — no pool slot needed.
		p := m.Predict(guests)
		if err := checkEstimate(p); err != nil {
			s.writeError(w, r, err)
			return
		}
		s.writeJSON(w, r, estimateResponse{
			Dom0CPU:  p.Dom0CPU,
			HypCPU:   p.HypCPU,
			PM:       toVectorJSON(p.PM),
			CacheHit: hit,
		})
	})
}

// handleScenarioRun accepts a scenario envelope (the exact schema of
// examples/scenarios/*.json), simulates it, and returns the run-averaged
// measurement per PM.
func (s *Server) handleScenarioRun(w http.ResponseWriter, r *http.Request) {
	s.observe(func() {
		body, err := readBody(r)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		sc, err := scenario.Parse(body)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
		defer cancel()
		var (
			resp scenarioRunResponse
			run  error
		)
		err = s.execute(ctx, func(ctx context.Context) {
			series, rerr := s.runScenario(ctx, sc)
			if rerr != nil {
				run = rerr
				return
			}
			resp.Samples = len(series)
			for _, m := range monitor.Average(series) {
				mj := measurementJSON{
					PM:            m.PM,
					VMs:           map[string]vectorJSON{},
					Dom0:          toVectorJSON(m.Dom0),
					HypervisorCPU: m.HypervisorCPU,
					Host:          toVectorJSON(m.Host),
				}
				for name, v := range m.VMs {
					mj.VMs[name] = toVectorJSON(v)
				}
				resp.Average = append(resp.Average, mj)
			}
		})
		if err == nil {
			err = run
		}
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		s.writeJSON(w, r, resp)
	})
}

// runScenario executes a scenario on a pool worker. A scenario with a
// warm-up settles once per prefix: the warmed snapshot is cached under
// scenario.PrefixKey (topology, workloads, seed, warmupSteps — everything
// but duration) and every later run of the same prefix forks its measured
// phase from it. The forked trace is byte-identical to RunContext's, so
// the response does not depend on the cache's state.
func (s *Server) runScenario(ctx context.Context, sc *scenario.Scenario) ([][]monitor.Measurement, error) {
	if sc.WarmupSteps <= 0 {
		return sc.RunContext(ctx)
	}
	src, _, err := s.forks.GetOrBuild(sc.PrefixKey(), func() (*xen.ForkSource, error) {
		return xen.NewForkSource(sc.ForkBuild, xen.DefaultCalibration(), sc.Seed, sc.WarmupSteps)
	})
	if err != nil {
		return nil, err
	}
	return sc.RunForked(ctx, src)
}

// handleModels lists the cached fitted models (no compute; answers even
// while the pool is saturated).
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	keys := s.cache.Keys()
	resp := modelsResponse{Models: make([]modelSpec, len(keys))}
	for i, k := range keys {
		resp.Models[i] = k.spec()
	}
	s.writeJSON(w, r, resp)
}

// handleMetrics exposes the service registry as Prometheus text. An
// uninstrumented server answers an empty document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.m.reg.WritePrometheus(w)
}

func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", errBadRequest, err)
	}
	return buf.Bytes(), nil
}

// handleNotFound answers every unrouted path with the error envelope.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, r, fmt.Errorf("%w: no route for %s %s", errNotFound, r.Method, r.URL.Path))
}

// tenantInfo is one row of the GET /v1/tenants listing.
type tenantInfo struct {
	ID            string `json:"id"`
	WindowSamples int    `json:"windowSamples"`
	// ModelVersion and ModelHash identify the published model (absent
	// until the first refit seeds one).
	ModelVersion uint64 `json:"modelVersion,omitempty"`
	ModelHash    string `json:"modelHash,omitempty"`
}

type tenantsResponse struct {
	// Tenants lists the live tenants, most recently ingesting first.
	Tenants []tenantInfo `json:"tenants"`
}

// handleTenants is GET /v1/tenants: the live tenant population with each
// tenant's window occupancy and published model identity. No compute; it
// answers even while the pool is saturated.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	resp := tenantsResponse{Tenants: []tenantInfo{}}
	for _, t := range s.tenants.all(nil) {
		info := tenantInfo{ID: t.id, WindowSamples: t.windowLen()}
		if tm := t.cur.Load(); tm != nil {
			info.ModelVersion = tm.version
			info.ModelHash = tm.hash
		}
		resp.Tenants = append(resp.Tenants, info)
	}
	s.writeJSON(w, r, resp)
}

// tenantModelResponse is GET /v1/tenants/{id}/model: the published model
// plus its provenance. Version, hash, samples and the coefficient set all
// come from one atomic load of the same tenantModel, so they are mutually
// consistent even while a refit is swapping underneath.
type tenantModelResponse struct {
	Tenant string `json:"tenant"`
	// Version counts publishes for the tenant, starting at 1.
	Version uint64 `json:"version"`
	// Hash fingerprints the coefficient matrices; recompute it from Model
	// to verify the set arrived whole.
	Hash string `json:"hash"`
	// Samples is the window size the fit consumed.
	Samples int `json:"samples"`
	// FittedAtNanos is the publish time in Unix nanoseconds.
	FittedAtNanos int64 `json:"fittedAtNanos"`
	// Model is the fitted model in exactly the core.SaveModel schema.
	Model json.RawMessage `json:"model"`
}

// loadTenantModel resolves {id} to its published model, mapping the two
// miss cases (unknown tenant, no fit yet) to 404.
func (s *Server) loadTenantModel(r *http.Request) (*tenant, *tenantModel, error) {
	id := r.PathValue("id")
	if err := validateTenantID(id); err != nil {
		return nil, nil, err
	}
	t := s.tenants.get(id)
	if t == nil {
		return nil, nil, fmt.Errorf("%w: tenant %q has no live window (never ingested, or evicted as idle)", errNotFound, id)
	}
	tm := t.cur.Load()
	if tm == nil {
		next := "refit pending"
		if !t.dirty.Load() {
			next = "the last refit skipped or failed"
		}
		return t, nil, fmt.Errorf("%w: tenant %q has no fitted model yet (%d samples buffered; %s)", errNotFound, id, t.windowLen(), next)
	}
	return t, tm, nil
}

func (s *Server) handleTenantModel(w http.ResponseWriter, r *http.Request) {
	s.observe(func() {
		_, tm, err := s.loadTenantModel(r)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		var buf bytes.Buffer
		if err := core.SaveModel(&buf, tm.model); err != nil {
			s.writeError(w, r, err)
			return
		}
		s.writeJSON(w, r, tenantModelResponse{
			Tenant:        r.PathValue("id"),
			Version:       tm.version,
			Hash:          tm.hash,
			Samples:       tm.samples,
			FittedAtNanos: tm.fittedAt,
			Model:         buf.Bytes(),
		})
	})
}

type tenantEstimateRequest struct {
	Version int `json:"version,omitempty"`
	// Guests are the co-located guests' utilization vectors.
	Guests []vectorJSON `json:"guests"`
}

type tenantEstimateResponse struct {
	Dom0CPU float64    `json:"dom0CPU"`
	HypCPU  float64    `json:"hypCPU"`
	PM      vectorJSON `json:"pm"`
	// ModelVersion and ModelHash name the exact model that produced this
	// estimate (the prediction and its provenance come from one atomic
	// load, never a mix of two models).
	ModelVersion uint64 `json:"modelVersion"`
	ModelHash    string `json:"modelHash"`
}

// handleTenantEstimate is POST /v1/tenants/{id}/estimate: apply the
// tenant's current learned model to the guests' utilization vectors.
// Prediction is a handful of dot products, so it runs inline — no pool
// slot, no fitting, no cache involvement.
func (s *Server) handleTenantEstimate(w http.ResponseWriter, r *http.Request) {
	s.observe(func() {
		var req tenantEstimateRequest
		if err := decodeStrict(r, &req); err != nil {
			s.writeError(w, r, err)
			return
		}
		if req.Version != 0 && req.Version != apiVersion {
			s.writeError(w, r, fmt.Errorf("%w: version: unsupported version %d (current %d)", errBadRequest, req.Version, apiVersion))
			return
		}
		if len(req.Guests) == 0 {
			s.writeError(w, r, fmt.Errorf("%w: guests: at least one guest is required", errBadRequest))
			return
		}
		_, tm, err := s.loadTenantModel(r)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		guests := make([]units.Vector, len(req.Guests))
		for i, g := range req.Guests {
			guests[i] = units.V(g.CPU, g.Mem, g.IO, g.BW)
		}
		p := tm.model.Predict(guests)
		if err := checkEstimate(p); err != nil {
			s.writeError(w, r, err)
			return
		}
		s.writeJSON(w, r, tenantEstimateResponse{
			Dom0CPU:      p.Dom0CPU,
			HypCPU:       p.HypCPU,
			PM:           toVectorJSON(p.PM),
			ModelVersion: tm.version,
			ModelHash:    tm.hash,
		})
	})
}

// healthzResponse is GET /v1/healthz: one glance at the service's load
// and learning freshness.
type healthzResponse struct {
	Status string `json:"status"`
	// QueueDepth is the tasks waiting for a compute worker; Workers is
	// the pool size the depth is waiting on.
	QueueDepth int `json:"queueDepth"`
	Workers    int `json:"workers"`
	// Tenants and WindowSamples describe the streaming side's footprint.
	Tenants       int   `json:"tenants"`
	WindowSamples int64 `json:"windowSamples"`
	// LastRefitAgeSec is the seconds since the refit loop's last completed
	// sweep, or -1 before the first (including when the loop is disabled
	// and RefitNow has never run).
	LastRefitAgeSec float64 `json:"lastRefitAgeSec"`
}

// handleHealthz is GET /v1/healthz. A draining server answers the 503
// envelope like every other endpoint, so probes and clients read one
// error schema.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.writeError(w, r, errDraining)
		return
	}
	s.writeJSON(w, r, healthzResponse{
		Status:          "ok",
		QueueDepth:      len(s.tasks),
		Workers:         s.opt.Workers,
		Tenants:         s.tenants.count(),
		WindowSamples:   s.tenants.samples.Load(),
		LastRefitAgeSec: s.refit.lastRefitAge(),
	})
}

// versionResponse is GET /v1/version: the build's identity and every
// schema version a client may need to negotiate against.
type versionResponse struct {
	// API is the request-envelope version every /v1 endpoint accepts.
	API int `json:"api"`
	// Scenario is the scenario-document schema (scenario.CurrentVersion).
	Scenario int `json:"scenario"`
	// Model is the serialized-model schema (core.ModelSchemaVersion).
	Model int `json:"model"`
	// Go, Module and Revision come from the binary's build info; empty
	// when the build carries none (e.g. some test binaries).
	Go       string `json:"go,omitempty"`
	Module   string `json:"module,omitempty"`
	Revision string `json:"revision,omitempty"`
}

// handleVersion is GET /v1/version.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	resp := versionResponse{
		API:      apiVersion,
		Scenario: scenario.CurrentVersion,
		Model:    core.ModelSchemaVersion,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Go = bi.GoVersion
		resp.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.Revision = kv.Value
			}
		}
	}
	s.writeJSON(w, r, resp)
}
