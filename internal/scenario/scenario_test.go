package scenario

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const validJSON = `{
  "seed": 7,
  "duration": 20,
  "pms": [{"name": "pm1"}, {"name": "pm2", "memMB": 4096}],
  "vms": [
    {"name": "web", "pm": "pm1", "memMB": 256,
     "workload": {"kind": "mix", "cpu": 40, "ioBlocks": 10, "bwMbps": 0.5}},
    {"name": "burst", "pm": "pm1", "vcpus": 2,
     "workload": {"kind": "phases", "phases": [
        {"seconds": 10, "cpu": 150}, {"seconds": 10, "cpu": 10}]}},
    {"name": "pinger", "pm": "pm2",
     "workload": {"kind": "bw", "level": 0.64, "target": "web"}},
    {"name": "idle", "pm": "pm2", "workload": {}}
  ]
}`

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PMs) != 2 || len(s.VMs) != 4 {
		t.Fatalf("parsed %d PMs, %d VMs", len(s.PMs), len(s.VMs))
	}
	if s.PMs[1].MemMB != 4096 {
		t.Errorf("pm2 mem = %v", s.PMs[1].MemMB)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"no pms":        `{"vms": []}`,
		"unnamed pm":    `{"pms": [{}]}`,
		"dup pm":        `{"pms": [{"name": "a"}, {"name": "a"}]}`,
		"unnamed vm":    `{"pms": [{"name": "a"}], "vms": [{"pm": "a"}]}`,
		"dup vm":        `{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a"}, {"name": "v", "pm": "a"}]}`,
		"unknown pm":    `{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "zzz"}]}`,
		"bad kind":      `{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a", "workload": {"kind": "magic"}}]}`,
		"no level":      `{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a", "workload": {"kind": "cpu"}}]}`,
		"empty phases":  `{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a", "workload": {"kind": "phases"}}]}`,
		"zero duration": `{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a", "workload": {"kind": "phases", "phases": [{"seconds": 0}]}}]}`,
	}
	for label, js := range cases {
		if _, err := Parse([]byte(js)); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
}

func TestBuildAndRunEndToEnd(t *testing.T) {
	s, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	series, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 20 {
		t.Fatalf("samples = %d, want 20", len(series))
	}
	first := series[0]
	if len(first) != 2 {
		t.Fatalf("PMs measured = %d, want 2", len(first))
	}
	pm1, pm2 := first[0], first[1]
	if pm1.PM != "pm1" || pm2.PM != "pm2" {
		t.Errorf("PM order = %s, %s", pm1.PM, pm2.PM)
	}
	// mix workload: web shows ~40% CPU and ~10 blocks/s.
	if web := pm1.VMs["web"]; math.Abs(web.CPU-41) > 3 || math.Abs(web.IO-10) > 2 {
		t.Errorf("web utilization = %v", web)
	}
	// 2-VCPU burst guest runs at 150% in its first phase.
	if burst := pm1.VMs["burst"]; math.Abs(burst.CPU-150) > 6 {
		t.Errorf("burst CPU = %v, want ~150 (2 VCPUs)", burst.CPU)
	}
	// pinger targets web cross-PM: both PMs carry the stream.
	if pm2.VMs["pinger"].BW < 500 {
		t.Errorf("pinger BW = %v, want ~640", pm2.VMs["pinger"].BW)
	}
	if pm1.Host.BW < 500 {
		t.Errorf("pm1 NIC should carry the inbound stream, BW = %v", pm1.Host.BW)
	}
	// The second phase drops the burst guest to ~10%.
	last := series[len(series)-1][0]
	if burst := last.VMs["burst"]; burst.CPU > 20 {
		t.Errorf("burst CPU in phase 2 = %v, want ~10", burst.CPU)
	}
	// Idle guest idles.
	if idle := series[0][1].VMs["idle"]; idle.CPU > 2 {
		t.Errorf("idle guest CPU = %v", idle.CPU)
	}
}

func TestRunDefaults(t *testing.T) {
	s, err := Parse([]byte(`{"pms": [{"name": "p"}], "vms": [{"name": "v", "pm": "p", "workload": {"kind": "cpu", "level": 30}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	series, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 120 {
		t.Errorf("default duration samples = %d, want 120", len(series))
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	s := &Scenario{}
	if _, _, err := s.Build(); err == nil {
		t.Error("empty scenario should fail to build")
	}
	if !strings.Contains((&Scenario{}).Validate().Error(), "PM") {
		t.Error("validation message should mention PMs")
	}
}

// --- versioned envelope + strict decoding (schema v1) ---

func TestParseVersion(t *testing.T) {
	if _, err := Parse([]byte(`{"version": 1, "pms": [{"name": "p"}], "vms": []}`)); err != nil {
		t.Errorf("version 1 should parse: %v", err)
	}
	_, err := Parse([]byte(`{"version": 2, "pms": [{"name": "p"}], "vms": []}`))
	if !errors.Is(err, ErrBadScenario) {
		t.Fatalf("version 2 err = %v, want ErrBadScenario", err)
	}
	if !strings.Contains(err.Error(), "version") || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Errorf("version error should name the field and version: %v", err)
	}
	// Omitted version means current.
	s, err := Parse([]byte(`{"pms": [{"name": "p"}], "vms": []}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != 0 && s.Version != CurrentVersion {
		t.Errorf("defaulted version = %d", s.Version)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"pms": [{"name": "p"}], "vms": [], "sede": 9}`))
	if !errors.Is(err, ErrBadScenario) {
		t.Fatalf("err = %v, want ErrBadScenario", err)
	}
	if !strings.Contains(err.Error(), `"sede"`) {
		t.Errorf("unknown-field error should name the field: %v", err)
	}
	// Nested unknown fields are rejected too.
	if _, err := Parse([]byte(`{"pms": [{"name": "p"}], "vms": [{"name": "v", "pm": "p", "workload": {"knd": "cpu"}}]}`)); err == nil {
		t.Error("nested unknown field should be rejected")
	}
}

func TestParseFieldPathErrors(t *testing.T) {
	cases := []struct {
		js   string
		want string
	}{
		{`{"pms": [{"name": "a"}], "vms": [{"name": "x", "pm": "a", "workload": {}}, {"name": "y", "pm": "a", "workload": {}}, {"name": "v", "pm": "a", "workload": {"kind": "cpuu"}}]}`,
			`vms[2].workload.kind: unknown kind "cpuu"`},
		{`{"pms": [{"name": "a"}, {}]}`, "pms[1].name"},
		{`{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "zzz"}]}`, "vms[0].pm"},
		{`{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a", "workload": {"kind": "io"}}]}`, "vms[0].workload.level"},
		{`{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a", "workload": {"kind": "phases", "phases": [{"seconds": 5}, {"seconds": 0}]}}]}`,
			"vms[0].workload.phases[1].seconds"},
		{`{"duration": -1, "pms": [{"name": "a"}]}`, "duration"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.js))
		if !errors.Is(err, ErrBadScenario) {
			t.Errorf("%s: err = %v, want ErrBadScenario", c.want, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q should contain path %q", err, c.want)
		}
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	const doc = `{"pms": [{"name": "p"}], "vms": []}`
	if _, err := Parse([]byte(doc + " \n\t")); err != nil {
		t.Fatalf("trailing whitespace: %v", err)
	}
	for _, tail := range []string{` {"more": 1}`, ` xyz`, ` }`, `]`, ` {"a":`, `,`, ` 5`} {
		_, err := Parse([]byte(doc + tail))
		if !errors.Is(err, ErrBadScenario) || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("doc%s: err = %v, want a trailing-data ErrBadScenario", tail, err)
		}
	}
}

func TestExampleScenariosParse(t *testing.T) {
	for _, name := range []string{"colocation.json", "intrapm.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(data); err != nil {
			t.Errorf("%s no longer parses under strict decoding: %v", name, err)
		}
	}
}

func TestRunContextCanceled(t *testing.T) {
	s, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
