// Benchmarks for the continuously-learning estimation service: the
// ingest path's cost per telemetry line, and the refit sweep — the
// background loop's steady-state cost of keeping a large tenant
// population fresh. The sweep's population is the service's documented
// memory ceiling — MaxTenants x Window samples — so that is the "full
// house" case: every tenant dirty, every window full.
package virtover_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"virtover/internal/core"
	"virtover/internal/serve"
	"virtover/internal/units"
)

// benchRefitRows is a strictly positive coefficient matrix; targets
// generated from it are exact linear functions of the features, so every
// refit converges and drift decisions don't flap.
var benchRefitRows = [core.NumTargets]core.Row{
	core.TargetDom0CPU: {1, 0.10, 0.002, 0.05, 0.001},
	core.TargetHypCPU:  {0.5, 0.05, 0.001, 0.02, 0.0005},
	core.TargetPMMem:   {30, 0.01, 1.0, 0, 0},
	core.TargetPMIO:    {2, 0, 0, 1.1, 0},
	core.TargetPMBW:    {5, 0, 0, 0, 1.05},
}

func benchRefitSamples(n int, seed uint64) []core.Sample {
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
			Dom0CPU: benchRefitRows[core.TargetDom0CPU].Apply(v),
			HypCPU:  benchRefitRows[core.TargetHypCPU].Apply(v),
			PM: units.V(0,
				benchRefitRows[core.TargetPMMem].Apply(v),
				benchRefitRows[core.TargetPMIO].Apply(v),
				benchRefitRows[core.TargetPMBW].Apply(v)),
		}
	}
	return out
}

// BenchmarkServeRefit measures one full refit sweep over 1000 dirty
// tenants, each with a full 512-sample window: per tenant an OLS
// challenger fit, the bootstrap drift comparison against the incumbent,
// and the atomic publish decision. Between iterations every tenant is
// re-dirtied with one fresh sample — the steady-state shape of a sweep
// under live telemetry, not the cold seed path.
func BenchmarkServeRefit(b *testing.B) {
	const (
		tenants = 1000
		window  = 512
	)
	s, err := serve.NewServer(serve.Options{
		Workers: 1, Queue: 1,
		Window: window, MaxTenants: tenants,
		RefitInterval: -1, // sweeps are driven explicitly below
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()

	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%04d", i)
		if _, err := s.Ingest(ids[i], benchRefitSamples(window, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	// Seed sweep: every tenant gets its incumbent, so the measured loop
	// below exercises the compare-and-decide path, not first-fit.
	if _, _, err := s.RefitNow(context.Background()); err != nil {
		b.Fatal(err)
	}
	fresh := benchRefitSamples(tenants, 9999)

	b.ReportAllocs()
	b.ResetTimer()
	var refits int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, id := range ids {
			if _, err := s.Ingest(id, fresh[j:j+1]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		n, _, err := s.RefitNow(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if n != tenants {
			b.Fatalf("sweep refit %d tenants, want %d", n, tenants)
		}
		refits += n
	}
	b.ReportMetric(float64(refits)/float64(b.N), "refits/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refits), "ns/refit")
}

// benchIngestLine is the wire form perfbench's learn workload sends, in
// its key order.
type benchIngestLine struct {
	Tenant  string   `json:"tenant"`
	N       int      `json:"n"`
	VMSum   benchVec `json:"vmSum"`
	Dom0CPU float64  `json:"dom0CPU"`
	HypCPU  float64  `json:"hypCPU"`
	PM      benchVec `json:"pm"`
}

type benchVec struct {
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
	IO  float64 `json:"io"`
	BW  float64 `json:"bw"`
}

func benchVector(v units.Vector) benchVec { return benchVec{v.CPU, v.Mem, v.IO, v.BW} }

// BenchmarkServeIngest measures POST /v1/ingest through the handler
// (httptest recorder, no network): framing, line decoding, validation
// and window appends for one tenant's batch of 32 or 512 lines, encoded
// the way perfbench's learn workload encodes them. ns/line is the cost
// per telemetry sample.
func BenchmarkServeIngest(b *testing.B) {
	for _, lines := range []int{32, 512} {
		b.Run(fmt.Sprintf("lines%d", lines), func(b *testing.B) {
			s, err := serve.NewServer(serve.Options{RefitInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = s.Shutdown(context.Background()) }()
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			for _, smp := range benchRefitSamples(lines, 77) {
				_ = enc.Encode(benchIngestLine{Tenant: "t0001", N: smp.N, VMSum: benchVector(smp.VMSum),
					Dom0CPU: smp.Dom0CPU, HypCPU: smp.HypCPU, PM: benchVector(smp.PM)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body.Bytes())))
				if rec.Code != http.StatusOK {
					b.Fatalf("ingest: %d %s", rec.Code, rec.Body)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
		})
	}
}
