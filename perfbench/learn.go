package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"virtover/internal/core"
	"virtover/internal/serve"
	"virtover/internal/units"
)

// The learn product: an in-process servd (serve.NewServer at product
// defaults, background refit loop off) on a loopback listener. Tenants
// stream telemetry generated from their own seeded linear ground truth; a
// seeded quarter of them change regime during the refit phase.

// learnSize scales the learn product.
type learnSize struct {
	tenants   int
	setups    int
	serving   time.Duration // open-loop serving phase
	rounds    int           // refit rounds (dirty every tenant, then sweep)
	rung      time.Duration // time per ramp rung
	checkSubs int           // tenants replayed on a second server
}

func learnSizeFor(p params) learnSize {
	switch p.size {
	case sizeFull:
		return learnSize{tenants: 256, setups: 3, serving: p.budget(0.35), rounds: 4, rung: p.budget(0.05), checkSubs: 8}
	case sizeSmoke:
		return learnSize{tenants: 32, setups: 1, serving: p.budget(0.2), rounds: 2, rung: p.budget(0.03), checkSubs: 4}
	}
	// The companion keeps the full tenant count: with fewer tenants the heap
	// is small, GC runs many times per sweep, and sweep times scatter.
	return learnSize{tenants: 256, setups: 1, serving: p.budget(0.2), rounds: 2, rung: p.budget(0.03), checkSubs: 4}
}

const (
	servingRate   = 400 // requests/s in the serving phase, half ingest and half estimate
	ingestBatch   = 32  // lines per ingest request
	refitBatch    = 64  // samples per tenant per refit round
	windowSamples = 512 // serve's default per-tenant window
	// A ramp rung fails when the median start of its last tenth of
	// requests is more than backlogLag behind their due times (the queue
	// grew through the rung), or when its p90 latency exceeds rampLimit.
	// Far below the service's capacity the p90 stays near one request's
	// service time, about 0.5 ms. Host speed swings by a fifth within a
	// second, so at 80% of capacity a queue builds for a few hundred
	// milliseconds and drains again, lifting the p90 to 30-80 ms with no
	// backlog at the end. The limit sits above that: the backlog rule,
	// which follows the capacity averaged over the rung, decides.
	backlogLag = 20 * time.Millisecond
	rampLimit  = 100 * time.Millisecond
	// rampTries is how often a rung runs before it counts as failed, so
	// that a stall of a fraction of a second does not decide it.
	rampTries = 2
	// maxLagShare marks a serving phase invalid (gen.invalid_phases) when
	// the generator's own lag p90 exceeds this share of the ingest p90 it
	// measures.
	maxLagShare = 0.5
	// An estimate may differ from the truth by tolAbs + tolRel*|truth|.
	tolAbs, tolRel = 0.25, 0.05
)

// The ramp's ladder of offered ingest batches per second is rampRate(k) =
// 100 × 1.25^(k/4) for k = 0..rampTop (100 to 13553), rungs about 6%
// apart. A 2-vCPU host keeps up to about 5000-6000; the race detector's
// build, to a few hundred.
const rampTop = 88

func rampRate(k int) float64 { return 100 * math.Pow(1.25, float64(k)/4) }

// tenantGen generates one tenant's telemetry.
type tenantGen struct {
	id        string
	rows      [2][core.NumTargets]core.Row // regime 0, regime 1
	drifts    bool
	driftAt   int // index of the first regime-1 sample, once the refit phase sets it
	driftWait int // refit rounds before the regime changes
	rng       *rand.Rand
	n         int
	probe     units.Vector  // the guest its estimates ask about
	keep      bool          // keep history and marks for the replay check
	history   []core.Sample // every sample drawn
	marks     []int         // samples drawn at each sweep
}

func newTenants(seed int64, n, keep int) []*tenantGen {
	rng := rand.New(rand.NewSource(seed))
	drift := rng.Perm(n)[:n/4]
	ts := make([]*tenantGen, n)
	for i := range ts {
		u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
		t := &tenantGen{id: fmt.Sprintf("t%04d", i), rng: rand.New(rand.NewSource(seed*7919 + int64(i))), keep: i < keep}
		t.rows[0] = [core.NumTargets]core.Row{
			core.TargetDom0CPU: {u(0.5, 2), u(0.05, 0.15), u(0.001, 0.003), u(0.02, 0.08), u(0.0005, 0.002)},
			core.TargetHypCPU:  {u(0.2, 1), u(0.02, 0.08), u(0.0005, 0.0015), u(0.01, 0.03), u(0.0002, 0.001)},
			core.TargetPMMem:   {u(20, 40), u(0, 0.02), u(0.9, 1.1), 0, 0},
			core.TargetPMIO:    {u(1, 3), 0, 0, u(1, 1.2), 0},
			core.TargetPMBW:    {u(3, 7), 0, 0, 0, u(1, 1.1)},
		}
		t.rows[1] = t.rows[0]
		for _, tg := range []core.Target{core.TargetDom0CPU, core.TargetHypCPU} {
			t.rows[1][tg][0] += u(1, 2)
			t.rows[1][tg][1] *= 1.5
		}
		t.probe = units.V(u(20, 80), u(100, 400), u(10, 50), u(100, 800))
		t.driftAt = math.MaxInt
		ts[i] = t
	}
	for _, i := range drift {
		ts[i].drifts = true
		ts[i].driftWait = rng.Intn(2)
	}
	return ts
}

// truth evaluates the tenant's first-regime ground truth without noise.
func (t *tenantGen) truth(v units.Vector) (dom0, hyp float64) {
	return t.rows[0][core.TargetDom0CPU].Apply(v), t.rows[0][core.TargetHypCPU].Apply(v)
}

// next draws n samples.
func (t *tenantGen) next(n int) []core.Sample {
	out := make([]core.Sample, n)
	for i := range out {
		r := 0
		if t.n >= t.driftAt {
			r = 1
		}
		g := t.rng
		v := units.V(10+80*g.Float64(), 64+400*g.Float64(), 5+60*g.Float64(), 50+900*g.Float64())
		row := t.rows[r]
		out[i] = core.Sample{
			N:       1,
			VMSum:   v,
			Dom0CPU: row[core.TargetDom0CPU].Apply(v) + 0.3*g.NormFloat64(),
			HypCPU:  row[core.TargetHypCPU].Apply(v) + 0.15*g.NormFloat64(),
			PM: units.V(0,
				row[core.TargetPMMem].Apply(v)+2*g.NormFloat64(),
				row[core.TargetPMIO].Apply(v)+0.5*g.NormFloat64(),
				row[core.TargetPMBW].Apply(v)+3*g.NormFloat64()),
		}
		t.n++
	}
	if t.keep {
		t.history = append(t.history, out...)
	}
	return out
}

// Wire forms of serve's API (the benchmark sees only what a client sees).
type vectorJSON struct {
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
	IO  float64 `json:"io"`
	BW  float64 `json:"bw"`
}

type ingestLine struct {
	Tenant  string     `json:"tenant"`
	N       int        `json:"n"`
	VMSum   vectorJSON `json:"vmSum"`
	Dom0CPU float64    `json:"dom0CPU"`
	HypCPU  float64    `json:"hypCPU"`
	PM      vectorJSON `json:"pm"`
}

type estimateResponse struct {
	Dom0CPU      float64 `json:"dom0CPU"`
	HypCPU       float64 `json:"hypCPU"`
	ModelVersion uint64  `json:"modelVersion"`
	ModelHash    string  `json:"modelHash"`
}

type modelResponse struct {
	Version uint64          `json:"version"`
	Hash    string          `json:"hash"`
	Model   json.RawMessage `json:"model"`
}

func vec(v units.Vector) vectorJSON { return vectorJSON{v.CPU, v.Mem, v.IO, v.BW} }

// encodeBatch renders samples as an ingest body, one JSON line each.
func encodeBatch(id string, samples []core.Sample) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range samples {
		_ = enc.Encode(ingestLine{Tenant: id, N: s.N, VMSum: vec(s.VMSum), Dom0CPU: s.Dom0CPU, HypCPU: s.HypCPU, PM: vec(s.PM)})
	}
	return b.Bytes()
}

func estimateBody(v units.Vector) []byte {
	b, _ := json.Marshal(map[string][]vectorJSON{"guests": {vec(v)}})
	return b
}

// modelHash recomputes serve's model fingerprint: FNV-1a over the
// little-endian bits of the coefficient matrices, A then O when present.
func modelHash(m *core.Model) string {
	h := fnv.New64a()
	var b [8]byte
	write := func(rows [core.NumTargets]core.Row) {
		for _, row := range rows {
			for _, v := range row {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				_, _ = h.Write(b[:])
			}
		}
	}
	write(m.A)
	if m.HasO {
		write(m.O)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// client is one sender's keep-alive connection.
type client struct {
	c    *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

// do sends one request, fails on any status other than 2xx, and decodes
// the body into out when out is non-nil.
func (c *client) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.c.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// service is a running servd on a loopback listener.
type service struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	clients []*client
}

func startService(senders int) (*service, error) {
	srv, err := serve.NewServer(serve.Options{RefitInterval: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < senders; i++ {
		s.clients = append(s.clients, newClient("http://"+ln.Addr().String()))
	}
	return s, nil
}

func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range s.clients {
		c.c.CloseIdleConnections()
	}
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// learnRun is the state of one learn product run.
type learnRun struct {
	size    learnSize
	res     *childResult
	tr      *tracer
	tenants []*tenantGen
	senders int
	svc     *service
}

// mark records, before a sweep, how many samples each replayed tenant has
// been sent.
func (l *learnRun) mark() {
	for _, t := range l.tenants[:l.size.checkSubs] {
		t.marks = append(t.marks, t.n)
	}
}

// part returns the tenants sender s owns: each tenant is sent on one
// connection only, so its sample order is fixed.
func (l *learnRun) part(s int) []*tenantGen {
	var out []*tenantGen
	for i := s; i < len(l.tenants); i += l.senders {
		out = append(out, l.tenants[i])
	}
	return out
}

func runLearn(ctx context.Context, p params) (*childResult, error) {
	senders := nproc()
	if senders > 2 {
		senders = 2
	}
	size := learnSizeFor(p)
	l := &learnRun{size: size, res: newResult(), tr: p.trace, senders: senders,
		tenants: newTenants(p.seed, size.tenants, size.checkSubs)}
	defer func() {
		if l.svc != nil {
			if err := l.svc.stop(); err != nil {
				l.res.problem("stopping the service: %v", err)
			}
		}
	}()
	steps := []func(context.Context) error{l.setup, l.serving, l.refitPhase, l.replayCheck}
	if l.tr.enabled() {
		steps = append(steps, l.ramp, l.layers, l.underRefit)
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			l.res.problem("%v", err)
			break
		}
	}
	return l.res, nil
}

// setup starts the service, fills every window through POST /v1/ingest
// from pre-encoded bodies, and runs the seed sweep; several times, keeping
// the last service.
func (l *learnRun) setup(ctx context.Context) error {
	bodies := make([][]byte, len(l.tenants))
	for i, t := range l.tenants {
		bodies[i] = encodeBatch(t.id, t.next(windowSamples))
	}
	var times []float64
	for i := 0; i < l.size.setups; i++ {
		if l.svc != nil {
			if err := l.svc.stop(); err != nil {
				return err
			}
			l.svc = nil
			runtime.GC()
		}
		id := l.tr.start("serve.setup", 0)
		t0 := time.Now()
		svc, err := startService(l.senders)
		if err != nil {
			return err
		}
		l.svc = svc
		// Tenant j belongs to sender j mod senders, as in every phase.
		errs := make([]error, len(bodies))
		var wg sync.WaitGroup
		for s := 0; s < l.senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for j := s; j < len(bodies); j += l.senders {
					errs[j] = svc.clients[s].do("POST", "/v1/ingest", bodies[j], nil)
				}
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			l.res.op(err)
		}
		refits, _, err := svc.srv.RefitNow(ctx)
		l.res.op(err)
		if refits != len(l.tenants) {
			l.res.problem("seed sweep fitted %d tenants, want %d", refits, len(l.tenants))
		}
		times = append(times, time.Since(t0).Seconds())
		l.tr.end(id)
	}
	l.mark()
	l.res.Metrics["setup_s"] = median(times)
	return nil
}

// serving runs the open-loop mix: servingRate requests/s, half 32-line
// ingest batches and half tenant estimates, on up to two connections. No
// sweep runs; every published model is the seed fit of one regime, so each
// estimate must match its tenant's ground truth and every estimate's model
// hash must match the hash recomputed from GET /v1/tenants/{id}/model.
func (l *learnRun) serving(ctx context.Context) error {
	dues := schedule(servingRate, l.size.serving, l.senders)
	type call struct {
		tenant *tenantGen
		ingest []byte
	}
	calls := make([][]call, l.senders)
	for s := range dues {
		part := l.part(s)
		var ni, ne int
		for i := range dues[s] {
			// Each sender alternates estimates and ingest batches. Requests
			// are due 1/servingRate apart, so neither kind waits behind the
			// other and each times its own path.
			if i%2 == 1 {
				t := part[ni%len(part)]
				calls[s] = append(calls[s], call{tenant: t, ingest: encodeBatch(t.id, t.next(ingestBatch))})
				ni++
			} else {
				calls[s] = append(calls[s], call{tenant: part[ne%len(part)]})
				ne++
			}
		}
	}
	probes := map[*tenantGen][]byte{}
	for _, t := range l.tenants {
		probes[t] = estimateBody(t.probe)
	}
	answers := make([][]estimateResponse, l.senders)
	for s := range answers {
		answers[s] = make([]estimateResponse, len(calls[s]))
	}
	phase := l.tr.start("serve.serving", 0)
	start := time.Now().Add(leadIn)
	reqs := runOpenLoop(start, dues, func(s, i int) error {
		c := calls[s][i]
		if c.ingest != nil {
			return l.svc.clients[s].do("POST", "/v1/ingest", c.ingest, nil)
		}
		return l.svc.clients[s].do("POST", "/v1/tenants/"+c.tenant.id+"/estimate", probes[c.tenant], &answers[s][i])
	})
	l.tr.end(phase)

	var ingest, estimate []float64
	served := map[*tenantGen]string{}
	for s, rs := range reqs {
		for i, r := range rs {
			l.res.op(r.err)
			c := calls[s][i]
			name := "http.estimate"
			if c.ingest != nil {
				name = "http.ingest"
				ingest = append(ingest, ms(r.latency()))
			} else {
				estimate = append(estimate, ms(r.latency()))
				if r.err == nil {
					l.checkEstimate(c.tenant, answers[s][i], served)
				}
			}
			l.tr.record(name, phase, r.due, r.done)
		}
	}
	lag := lags(reqs)
	isIngest := func(s, i int) bool { return calls[s][i].ingest != nil }
	isEstimate := func(s, i int) bool { return calls[s][i].ingest == nil }
	m := l.res.Metrics
	m["ingest_p50_ms"] = windowed(reqs, start, time.Second, 0.5, isIngest)
	m["serve.ingest_p90_ms"] = windowed(reqs, start, time.Second, 0.9, isIngest)
	m["estimate_p50_ms"] = windowed(reqs, start, time.Second, 0.5, isEstimate)
	m["serve.estimate_p90_ms"] = windowed(reqs, start, time.Second, 0.9, isEstimate)
	m["serve.ingest_p99_ms"], m["serve.estimate_p99_ms"] = quantile(ingest, 0.99), quantile(estimate, 0.99)
	m["gen.lag_p90_ms"], m["gen.lag_p99_ms"] = quantile(lag, 0.9), quantile(lag, 0.99)
	m["gen.invalid_phases"] = 0
	fmt.Fprintf(os.Stderr, "perfbench learn: serving ingest p50 %.3f p90 %.3f ms, estimate p50 %.3f p90 %.3f ms, generator lag p90 %.3f ms\n",
		m["ingest_p50_ms"], m["serve.ingest_p90_ms"], m["estimate_p50_ms"], m["serve.estimate_p90_ms"], m["gen.lag_p90_ms"])
	if m["gen.lag_p90_ms"] > maxLagShare*m["serve.ingest_p90_ms"] {
		// The generator, not the service, set these latencies.
		m["gen.invalid_phases"] = 1
		fmt.Fprintf(os.Stderr, "perfbench learn: serving phase invalid: generator lag p90 %.3f ms exceeds %.0f%% of ingest p90 %.3f ms\n",
			m["gen.lag_p90_ms"], 100*maxLagShare, m["serve.ingest_p90_ms"])
	}

	// Every tenant's published model must hash to what its estimates named.
	for _, t := range l.tenants {
		var mr modelResponse
		err := l.svc.clients[0].do("GET", "/v1/tenants/"+t.id+"/model", nil, &mr)
		l.res.op(err)
		if err != nil {
			continue
		}
		model, err := core.LoadModel(bytes.NewReader(mr.Model))
		if err != nil {
			l.res.problem("tenant %s model: %v", t.id, err)
			continue
		}
		if h := modelHash(model); h != mr.Hash || (served[t] != "" && served[t] != h) {
			l.res.problem("tenant %s: model hashes to %s, served as %s, estimates named %s", t.id, h, mr.Hash, served[t])
		}
	}
	return nil
}

// checkEstimate compares one estimate with the tenant's regime-0 truth.
func (l *learnRun) checkEstimate(t *tenantGen, a estimateResponse, served map[*tenantGen]string) {
	dom0, hyp := t.truth(t.probe)
	if math.Abs(a.Dom0CPU-dom0) > tolAbs+tolRel*math.Abs(dom0) || math.Abs(a.HypCPU-hyp) > tolAbs+tolRel*math.Abs(hyp) {
		l.res.problem("tenant %s estimate dom0 %.3f hyp %.3f, truth %.3f %.3f", t.id, a.Dom0CPU, a.HypCPU, dom0, hyp)
	}
	if prev := served[t]; prev != "" && prev != a.ModelHash {
		l.res.problem("tenant %s served two models (%s, %s) with no sweep between", t.id, prev, a.ModelHash)
	}
	served[t] = a.ModelHash
}

// refitPhase dirties every tenant with a fixed batch and sweeps, round
// after round. Drifting tenants change regime after a seeded number of
// rounds, so sweeps both swap and keep.
func (l *learnRun) refitPhase(ctx context.Context) error {
	for _, t := range l.tenants {
		if t.drifts {
			t.driftAt = t.n + t.driftWait*refitBatch
		}
	}
	var sweeps []float64
	var refits, swaps int
	var m0, m1 runtime.MemStats
	for r := 0; r < l.size.rounds; r++ {
		for _, t := range l.tenants {
			_, err := l.svc.srv.Ingest(t.id, t.next(refitBatch))
			l.res.op(err)
		}
		l.mark()
		runtime.ReadMemStats(&m0)
		id := l.tr.start("serve.sweep", 0)
		t0 := time.Now()
		n, k, err := l.svc.srv.RefitNow(ctx)
		d := time.Since(t0)
		l.tr.end(id)
		runtime.ReadMemStats(&m1)
		l.res.op(err)
		if n != len(l.tenants) {
			l.res.problem("round %d refit %d tenants, want %d", r, n, len(l.tenants))
		}
		sweeps = append(sweeps, d.Seconds())
		refits += n
		swaps += k
		l.res.Metrics["serve.refit_alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	}
	m := l.res.Metrics
	m["refit_sweep_s"] = median(sweeps)
	m["serve.refit_ms"] = 1000 * median(sweeps) / float64(len(l.tenants))
	m["serve.refit_alloc_mb"] /= float64(refits)
	m["serve.refits"], m["serve.swaps"] = float64(refits), float64(swaps)
	m["serve.swap_ratio"] = float64(swaps) / float64(refits)
	if swaps == 0 || swaps == refits {
		l.res.problem("refit phase swapped %d of %d: want both swaps and keeps", swaps, refits)
	}
	return nil
}

// replayCheck feeds a second server the same per-tenant sample sequences,
// sweeping at the same points, for a few tenants; each must reach the same
// model version and hash. Swap and keep decisions are a function of the
// inputs, so they repeat across runs.
func (l *learnRun) replayCheck(ctx context.Context) error {
	twin, err := serve.NewServer(serve.Options{RefitInterval: -1})
	if err != nil {
		return err
	}
	defer func() { _ = twin.Shutdown(ctx) }()
	replayed := l.tenants[:l.size.checkSubs]
	for k := range replayed[0].marks {
		for _, t := range replayed {
			from := 0
			if k > 0 {
				from = t.marks[k-1]
			}
			if _, err := twin.Ingest(t.id, t.history[from:t.marks[k]]); err != nil {
				return err
			}
		}
		if _, _, err := twin.RefitNow(ctx); err != nil {
			return err
		}
	}
	for _, t := range replayed {
		var live modelResponse
		err := l.svc.clients[0].do("GET", "/v1/tenants/"+t.id+"/model", nil, &live)
		l.res.op(err)
		rec := httptest.NewRecorder()
		twin.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tenants/"+t.id+"/model", nil))
		var again modelResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil {
			return fmt.Errorf("replayed tenant %s: %w", t.id, err)
		}
		if live.Version != again.Version || live.Hash != again.Hash {
			l.res.problem("tenant %s: version %d hash %s, replayed %d %s", t.id, live.Version, live.Hash, again.Version, again.Hash)
		}
	}
	return nil
}

// ramp offers ingest-only load over the rate ladder and reports the
// highest rung that neither built a backlog nor exceeded rampLimit in one
// of rampTries tries.
func (l *learnRun) ramp(ctx context.Context) error {
	bodies := make([][][]byte, l.senders)
	for s := range bodies {
		for _, t := range l.part(s) {
			bodies[s] = append(bodies[s], encodeBatch(t.id, t.next(ingestBatch)))
		}
	}
	k := highestRung(func(k int) bool {
		for try := 0; try < rampTries; try++ {
			if l.rung(rampRate(k), bodies) {
				return true
			}
		}
		return false
	})
	if k < 0 {
		l.res.problem("ramp: even %g batches/s built a backlog or missed the %v p90 limit %d times", rampRate(0), rampLimit, rampTries)
		return nil
	}
	l.res.Metrics["serve.ingest_max_rate"] = rampRate(k) * ingestBatch
	return nil
}

// highestRung returns the highest rung k <= rampTop for which keepsUp(k)
// holds, or -1 if none does. It bisects the ladder, so it runs seven rungs
// instead of climbing through dozens; it assumes the service keeps up to
// some rung and not above it.
func highestRung(keepsUp func(k int) bool) int {
	lo, hi := -1, rampTop+1 // highest rung that kept up, lowest that did not
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; keepsUp(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// rung offers rate ingest batches per second for one rung and reports
// whether the service kept up.
func (l *learnRun) rung(rate float64, bodies [][][]byte) bool {
	dues := schedule(rate, l.size.rung, l.senders)
	id := l.tr.start(fmt.Sprintf("serve.ramp.%.0f", rate), 0)
	start := time.Now().Add(leadIn)
	reqs := runOpenLoop(start, dues, func(s, i int) error {
		return l.svc.clients[s].do("POST", "/v1/ingest", bodies[s][i%len(bodies[s])], nil)
	})
	l.tr.end(id)
	var lat, late []float64
	for _, rs := range reqs {
		for i, r := range rs {
			l.res.op(r.err)
			lat = append(lat, ms(r.latency()))
			if i >= len(rs)*9/10 {
				late = append(late, ms(r.sent.Sub(r.due)))
			}
		}
	}
	p90, backlog := quantile(lat, 0.9), median(late) > ms(backlogLag)
	fmt.Fprintf(os.Stderr, "perfbench learn: ramp %.0f batches/s p90 %.3f ms, last tenth %.3f ms late, generator lag p90 %.3f ms\n",
		rate, p90, median(late), quantile(lags(reqs), 0.9))
	return !backlog && p90 <= ms(rampLimit)
}

// layers times single calls into each layer, closed loop.
func (l *learnRun) layers(ctx context.Context) error {
	const n = 400
	t := l.tenants[0]
	batch := t.next(ingestBatch)
	body := encodeBatch(t.id, batch)
	timeIt := func(span string, reps int, f func() error) float64 {
		var xs []float64
		parent := l.tr.start(span, 0)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			err := f()
			xs = append(xs, ms(time.Since(t0)))
			l.res.op(err)
		}
		l.tr.end(parent)
		return median(xs)
	}
	m := l.res.Metrics
	m["serve.ingest_call_ms"] = timeIt("serve.Ingest", n, func() error {
		_, err := l.svc.srv.Ingest(t.id, batch)
		return err
	})
	m["serve.ingest_http_ms"] = timeIt("http.ingest.closed", n, func() error {
		return l.svc.clients[0].do("POST", "/v1/ingest", body, nil)
	})
	probe := estimateBody(t.probe)
	m["serve.estimate_http_ms"] = timeIt("http.estimate.closed", n, func() error {
		return l.svc.clients[0].do("POST", "/v1/tenants/"+t.id+"/estimate", probe, &estimateResponse{})
	})

	window := t.next(windowSamples)
	other := t.next(windowSamples)
	var model *core.Model
	m["core.train_ms"] = timeIt("core.Train", 20, func() (err error) {
		model, err = core.Train(window, nil, core.FitOptions{})
		return err
	})
	challenger, err := core.Train(other, nil, core.FitOptions{})
	if err != nil {
		return err
	}
	m["core.compare_ms"] = timeIt("core.CompareOnWindow", 10, func() error {
		_, err := core.CompareOnWindow(model, challenger, window, core.DriftOptions{Seed: 1})
		return err
	})
	guests := []units.Vector{t.probe}
	const calls = 1000
	m["core.predict_us"] = 1000 * timeIt("core.Predict", 20, func() error {
		for i := 0; i < calls; i++ {
			model.Predict(guests)
		}
		return nil
	}) / calls
	return nil
}

// underRefit serves the serving phase's ingest rate while a sweep over
// every tenant runs, and records the ingest p90 of requests due during it.
func (l *learnRun) underRefit(ctx context.Context) error {
	for _, t := range l.tenants {
		_, err := l.svc.srv.Ingest(t.id, t.next(refitBatch))
		l.res.op(err)
	}
	bodies := make([][][]byte, l.senders)
	for s := range bodies {
		for _, t := range l.part(s) {
			bodies[s] = append(bodies[s], encodeBatch(t.id, t.next(ingestBatch)))
		}
	}
	type sweep struct {
		end time.Time
		err error
	}
	swept := make(chan sweep, 1)
	go func() {
		_, _, err := l.svc.srv.RefitNow(ctx)
		swept <- sweep{time.Now(), err}
	}()
	start := time.Now()
	dues := schedule(servingRate/2, time.Duration(1.5*l.res.Metrics["refit_sweep_s"]*float64(time.Second)), l.senders)
	reqs := runOpenLoop(start, dues, func(s, i int) error {
		return l.svc.clients[s].do("POST", "/v1/ingest", bodies[s][i%len(bodies[s])], nil)
	})
	sw := <-swept
	l.res.op(sw.err)
	var lat []float64
	for _, rs := range reqs {
		for _, r := range rs {
			l.res.op(r.err)
			if r.due.Before(sw.end) {
				lat = append(lat, ms(r.latency()))
			}
		}
	}
	l.res.Metrics["serve.ingest_p90_under_refit_ms"] = quantile(lat, 0.9)
	fmt.Fprintf(os.Stderr, "perfbench learn: under refit generator lag p90 %.3f ms\n", quantile(lags(reqs), 0.9))
	return nil
}
