// Package scenario loads declarative simulation scenarios from JSON:
// cluster topology (PMs, VMs with configurations) plus per-VM workloads
// (Table II micro-benchmarks, fixed mixes, or scripted phases). It exists
// so cmd/xensim users — and the estimation service's /v1/scenario/run
// endpoint, which reuses this envelope as its request schema — can
// describe experiments without writing Go.
//
// The envelope is versioned: "version" defaults to 1 (the current
// CurrentVersion) when omitted and is rejected when newer than the code
// understands, so saved scenario files fail loudly instead of silently
// dropping fields after a schema change. Decoding is strict — unknown
// fields are errors — and every validation failure names the offending
// field by path ("vms[2].workload.kind: unknown kind \"cpuu\"") and wraps
// ErrBadScenario for errors.Is dispatch.
//
// Example:
//
//	{
//	  "version": 1,
//	  "seed": 7,
//	  "duration": 120,
//	  "pms": [{"name": "pm1"}, {"name": "pm2", "memMB": 4096}],
//	  "vms": [
//	    {"name": "web", "pm": "pm1", "memMB": 256,
//	     "workload": {"kind": "mix", "cpu": 40, "ioBlocks": 10, "bwMbps": 0.5}},
//	    {"name": "burst", "pm": "pm1", "vcpus": 2,
//	     "workload": {"kind": "phases", "phases": [
//	        {"seconds": 60, "cpu": 150}, {"seconds": 60, "cpu": 10}]}},
//	    {"name": "pinger", "pm": "pm2",
//	     "workload": {"kind": "bw", "level": 0.64, "target": "web"}}
//	  ]
//	}
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"virtover/internal/monitor"
	"virtover/internal/units"
	"virtover/internal/workload"
	"virtover/internal/xen"
)

// CurrentVersion is the scenario schema version this package reads and
// writes. Version 1 is the original (and so far only) envelope; files
// without a "version" field are treated as version 1.
const CurrentVersion = 1

// ErrBadScenario is wrapped by every scenario decode or validation
// failure, so callers can route "the scenario is malformed" with
// errors.Is(err, ErrBadScenario) without string matching. The error text
// names the offending field by path.
var ErrBadScenario = errors.New("scenario: invalid scenario")

// badf builds a field-path validation error wrapping ErrBadScenario.
func badf(path, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrBadScenario, path, fmt.Sprintf(format, args...))
}

// Scenario is a declarative simulation setup.
type Scenario struct {
	// Version is the schema version (CurrentVersion; 0 means "current").
	Version int `json:"version,omitempty"`
	// Seed drives the simulation and measurement noise.
	Seed int64 `json:"seed"`
	// Duration is the measured seconds (default 120).
	Duration int `json:"duration,omitempty"`
	// WarmupSteps runs a settle phase before measurement begins. The
	// warmed state is a pure function of everything except Duration, so
	// services fork repeated runs of the same scenario from a cached
	// prefix (see PrefixKey) instead of re-settling.
	WarmupSteps int      `json:"warmupSteps,omitempty"`
	PMs         []PMSpec `json:"pms"`
	VMs         []VMSpec `json:"vms"`
}

// PMSpec declares one physical machine.
type PMSpec struct {
	Name  string  `json:"name"`
	MemMB float64 `json:"memMB,omitempty"` // default 2048
}

// VMSpec declares one guest.
type VMSpec struct {
	Name     string       `json:"name"`
	PM       string       `json:"pm"`
	MemMB    float64      `json:"memMB,omitempty"`  // default 512
	VCPUs    int          `json:"vcpus,omitempty"`  // default 1
	Weight   float64      `json:"weight,omitempty"` // default 256
	Workload WorkloadSpec `json:"workload"`
}

// WorkloadSpec declares a guest workload.
//
// Kinds:
//   - "cpu", "mem", "io", "bw": a Table II micro-benchmark at Level
//     (native unit; "bw" accepts Target for intra-PM streams)
//   - "mix": a constant mixed demand (CPU %, MemMB, IOBlocks, BWMbps)
//   - "phases": scripted piecewise-constant phases
//   - "" or "idle": no workload
type WorkloadSpec struct {
	Kind   string  `json:"kind,omitempty"`
	Level  float64 `json:"level,omitempty"`
	Target string  `json:"target,omitempty"`
	Jitter float64 `json:"jitter,omitempty"`

	CPU      float64 `json:"cpu,omitempty"`
	MemMB    float64 `json:"memMB,omitempty"`
	IOBlocks float64 `json:"ioBlocks,omitempty"`
	BWMbps   float64 `json:"bwMbps,omitempty"`

	Phases []PhaseSpec `json:"phases,omitempty"`
}

// PhaseSpec is one phase of a scripted workload.
type PhaseSpec struct {
	Seconds  float64 `json:"seconds"`
	CPU      float64 `json:"cpu,omitempty"`
	MemMB    float64 `json:"memMB,omitempty"`
	IOBlocks float64 `json:"ioBlocks,omitempty"`
	BWMbps   float64 `json:"bwMbps,omitempty"`
	Target   string  `json:"target,omitempty"`
}

// Parse strictly decodes and validates a scenario: unknown fields,
// trailing data, a version the code does not understand, and every
// structural inconsistency are errors wrapping ErrBadScenario, with the
// offending field named by path.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, decodeError(err)
	}
	// Only whitespace may follow the document: the next token must be
	// io.EOF. Anything else — a second document, a stray '}' or ']', a
	// partial value — is trailing data.
	if _, err := dec.Token(); err != io.EOF {
		return nil, badf("$", "trailing data after scenario document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// decodeError rewrites an encoding/json error as an ErrBadScenario with
// the most useful location information the stdlib exposes (field name for
// unknown-field and type errors).
func decodeError(err error) error {
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) {
		path := ute.Field
		if path == "" {
			path = "$"
		}
		return badf(path, "cannot decode %s into %s", ute.Value, ute.Type)
	}
	// DisallowUnknownFields surfaces as a plain errorString:
	//   json: unknown field "xyz"
	if msg := err.Error(); strings.Contains(msg, "unknown field") {
		return fmt.Errorf("%w: %s", ErrBadScenario, strings.TrimPrefix(msg, "json: "))
	}
	return fmt.Errorf("%w: %v", ErrBadScenario, err)
}

// Validate checks structural consistency. Every failure wraps
// ErrBadScenario and names the offending field by path.
func (s *Scenario) Validate() error {
	if s.Version != 0 && s.Version != CurrentVersion {
		return badf("version", "unsupported version %d (current %d)", s.Version, CurrentVersion)
	}
	if s.Duration < 0 {
		return badf("duration", "must be >= 0, got %d", s.Duration)
	}
	if s.WarmupSteps < 0 {
		return badf("warmupSteps", "must be >= 0, got %d", s.WarmupSteps)
	}
	if len(s.PMs) == 0 {
		return badf("pms", "at least one PM is required")
	}
	pmNames := map[string]bool{}
	for i, pm := range s.PMs {
		path := fmt.Sprintf("pms[%d]", i)
		if pm.Name == "" {
			return badf(path+".name", "PM has no name")
		}
		if pmNames[pm.Name] {
			return badf(path+".name", "duplicate PM %q", pm.Name)
		}
		if pm.MemMB < 0 {
			return badf(path+".memMB", "must be >= 0, got %g", pm.MemMB)
		}
		pmNames[pm.Name] = true
	}
	vmNames := map[string]bool{}
	for i, vm := range s.VMs {
		path := fmt.Sprintf("vms[%d]", i)
		if vm.Name == "" {
			return badf(path+".name", "VM has no name")
		}
		if vmNames[vm.Name] {
			return badf(path+".name", "duplicate VM %q", vm.Name)
		}
		vmNames[vm.Name] = true
		if !pmNames[vm.PM] {
			return badf(path+".pm", "VM %q references unknown PM %q", vm.Name, vm.PM)
		}
		if vm.MemMB < 0 {
			return badf(path+".memMB", "must be >= 0, got %g", vm.MemMB)
		}
		if vm.VCPUs < 0 {
			return badf(path+".vcpus", "must be >= 0, got %d", vm.VCPUs)
		}
		if err := vm.Workload.validate(path + ".workload"); err != nil {
			return err
		}
	}
	return nil
}

func (w *WorkloadSpec) validate(path string) error {
	switch w.Kind {
	case "", "idle", "mix":
		return nil
	case "cpu", "mem", "io", "bw":
		if w.Level <= 0 {
			return badf(path+".level", "%s workload needs a positive level", w.Kind)
		}
		return nil
	case "phases":
		if len(w.Phases) == 0 {
			return badf(path+".phases", "phases workload needs phases")
		}
		for i, p := range w.Phases {
			if p.Seconds <= 0 {
				return badf(fmt.Sprintf("%s.phases[%d].seconds", path, i), "must be positive, got %g", p.Seconds)
			}
		}
		return nil
	default:
		return badf(path+".kind", "unknown kind %q", w.Kind)
	}
}

// buildSource constructs the xen.Source for a VM.
func (w *WorkloadSpec) buildSource(seed int64) xen.Source {
	opt := workload.Options{JitterRel: w.Jitter, Seed: seed, BWTarget: w.Target}
	switch w.Kind {
	case "cpu":
		return workload.New(workload.CPU, w.Level, opt)
	case "mem":
		return workload.New(workload.MEM, w.Level, opt)
	case "io":
		return workload.New(workload.IO, w.Level, opt)
	case "bw":
		return workload.New(workload.BW, w.Level, opt)
	case "mix":
		return workload.Const(xen.Demand{
			CPU:      w.CPU,
			MemMB:    w.MemMB,
			IOBlocks: w.IOBlocks,
			Flows:    flowsFor(w.BWMbps, w.Target),
		})
	case "phases":
		phases := make([]workload.Phase, len(w.Phases))
		for i, p := range w.Phases {
			phases[i] = workload.Phase{
				Seconds: p.Seconds,
				Demand: xen.Demand{
					CPU:      p.CPU,
					MemMB:    p.MemMB,
					IOBlocks: p.IOBlocks,
					Flows:    flowsFor(p.BWMbps, p.Target),
				},
			}
		}
		return workload.Steps(phases)
	default:
		return xen.IdleSource
	}
}

func flowsFor(mbps float64, target string) []xen.Flow {
	if mbps <= 0 {
		return nil
	}
	return []xen.Flow{{DstVM: target, Kbps: units.MbpsToKbps(mbps)}}
}

// Build constructs the cluster and an engine. PM order follows the spec.
// The engine picks up the process-default shard count (xen.SetDefaultShards,
// the cmd/ -shards flag); when that exceeds 1 the caller should Close the
// engine once done to stop its worker pool.
func (s *Scenario) Build() (*xen.Engine, []*xen.PM, error) {
	b, err := s.ForkBuild()
	if err != nil {
		return nil, nil, err
	}
	return xen.NewEngine(b.Cluster, xen.DefaultCalibration(), s.Seed), b.Data.([]*xen.PM), nil
}

// ForkBuild constructs the scenario's world in the warm-start fork layer's
// terms: the cluster, the stateful (jittered) workload sources as Aux, and
// the spec-ordered PM list as Data. The construction is deterministic —
// two calls build identical worlds — which is what lets xen.NewForkSource
// warm the scenario once and fork every subsequent run from the captured
// state.
func (s *Scenario) ForkBuild() (xen.ForkBuild, error) {
	if err := s.Validate(); err != nil {
		return xen.ForkBuild{}, err
	}
	cl := xen.NewCluster()
	pms := make([]*xen.PM, len(s.PMs))
	byName := map[string]*xen.PM{}
	for i, spec := range s.PMs {
		pm := cl.AddPM(spec.Name)
		if spec.MemMB > 0 {
			pm.MemCapMB = spec.MemMB
		}
		pms[i] = pm
		byName[spec.Name] = pm
	}
	b := xen.ForkBuild{Cluster: cl, Data: pms}
	for i, spec := range s.VMs {
		mem := spec.MemMB
		if mem <= 0 {
			mem = 512
		}
		vm := cl.AddVMConfig(byName[spec.PM], spec.Name, mem, spec.VCPUs, spec.Weight)
		src := spec.Workload.buildSource(s.Seed + int64(i)*101)
		vm.SetSource(src)
		if f, ok := src.(xen.Forkable); ok {
			b.Aux = append(b.Aux, f)
		}
	}
	return b, nil
}

// PrefixKey content-addresses the scenario's warmed prefix: a digest of
// every field the settled state depends on — schema version, seed,
// warm-up length, topology and workloads — excluding Duration, which only
// scales the measured phase. Two scenarios with equal keys fork from the
// same cached state; any topology or workload edit, seed change or schema
// version bump changes the key, so stale prefixes can never be served.
func (s *Scenario) PrefixKey() string {
	c := *s
	c.Version = CurrentVersion // 0 means "current": normalize
	c.Duration = 0
	blob, err := json.Marshal(&c)
	if err != nil {
		// Scenario is plain data; Marshal cannot fail. Keep a defensive
		// unshareable key anyway.
		return fmt.Sprintf("scenario|unhashable|%p", s)
	}
	h := fnv.New64a()
	h.Write(blob)
	return fmt.Sprintf("scenario|v%d|%016x", CurrentVersion, h.Sum64())
}

// Run builds the scenario and measures every PM with the paper's script
// for the scenario duration, returning the raw measurement series. It is
// RunContext under context.Background().
func (s *Scenario) Run() ([][]monitor.Measurement, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the simulation aborts within one
// engine step of ctx cancel and the error is ctx.Err(). WarmupSteps, when
// set, settle the world before the script attaches; the serve layer runs
// the same measured phase from a forked prefix and its trace is
// byte-identical to this one.
func (s *Scenario) RunContext(ctx context.Context) ([][]monitor.Measurement, error) {
	e, pms, err := s.Build()
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if s.WarmupSteps > 0 {
		if err := e.AdvanceContext(ctx, s.WarmupSteps); err != nil {
			return nil, err
		}
	}
	return s.measure(ctx, e, pms)
}

// measure runs the scenario's measured phase on an already-settled engine.
func (s *Scenario) measure(ctx context.Context, e *xen.Engine, pms []*xen.PM) ([][]monitor.Measurement, error) {
	duration := s.Duration
	if duration <= 0 {
		duration = 120
	}
	script := monitor.Script{
		IntervalSteps: 1, Samples: duration,
		Noise: monitor.DefaultNoise(), Seed: s.Seed + 999,
	}
	return script.RunContext(ctx, e, pms)
}

// RunForked runs the measured phase on a warmed engine forked from src
// (built from this scenario's ForkBuild with its WarmupSteps). The trace
// is byte-identical to RunContext on the same scenario.
func (s *Scenario) RunForked(ctx context.Context, src *xen.ForkSource) ([][]monitor.Measurement, error) {
	e, data, err := src.Fork()
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return s.measure(ctx, e, data.([]*xen.PM))
}
