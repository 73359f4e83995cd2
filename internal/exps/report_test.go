package exps

import (
	"strings"
	"testing"
)

func TestQuickReportCoversEverything(t *testing.T) {
	// Several seeds, because a figure order that depended on map
	// iteration would come out right by chance on one report in three.
	for _, seed := range []int64{3, 4, 5, 6} {
		cfg := QuickReportConfig(seed)
		// Trim further for test speed.
		cfg.SamplesPerRun = 8
		cfg.PredictionDuration = 20
		cfg.PlacementRepeats = 2
		cfg.PlacementDuration = 30
		doc, err := FullReport(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range []string{
			"# Virtualization-overhead reproduction report",
			"Table I", "Table II", "Table III",
			"Figure 2(a)", "Figure 3(b)", "Figure 4(e)", "Figure 5(b)",
			"matrix a", "matrix o",
			"Figure 7", "Figure 8", "Figure 9",
			"Figure 10", "VOA", "VOU",
			"OLS vs LMS", "Workload isolation", "Heterogeneous",
			"Elastic scaling", "Hotspot mitigation", "bootstrap",
		} {
			if !strings.Contains(doc, frag) {
				t.Errorf("seed %d: report missing %q", seed, frag)
			}
		}
		if len(doc) < 5000 {
			t.Errorf("seed %d: report suspiciously short: %d bytes", seed, len(doc))
		}
		f7 := strings.Index(doc, "Figure 7 (")
		f8 := strings.Index(doc, "Figure 8 (")
		f9 := strings.Index(doc, "Figure 9 (")
		if f7 < 0 || !(f7 < f8 && f8 < f9) {
			t.Errorf("seed %d: Figures 7-9 at offsets %d, %d, %d, want them in figure order", seed, f7, f8, f9)
		}
	}
}

func TestReportWithoutExtensions(t *testing.T) {
	cfg := QuickReportConfig(5)
	cfg.SamplesPerRun = 8
	cfg.PredictionDuration = 15
	cfg.PlacementRepeats = 1
	cfg.PlacementDuration = 20
	cfg.Extensions = false
	doc, err := FullReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc, "Extensions beyond the paper") {
		t.Error("extensions section should be absent")
	}
	if !strings.Contains(doc, "Figure 10") {
		t.Error("core sections must remain")
	}
}

func TestReportConfigs(t *testing.T) {
	q := QuickReportConfig(1)
	p := PaperReportConfig(1)
	if q.SamplesPerRun >= p.SamplesPerRun {
		t.Error("quick config should be smaller than paper config")
	}
	if p.SamplesPerRun != 120 || p.PredictionDuration != 600 {
		t.Errorf("paper config should mirror the paper: %+v", p)
	}
}
