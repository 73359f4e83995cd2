package virtover_test

import (
	"os"
	"strings"
	"testing"

	"virtover/internal/exps"
	"virtover/internal/xen"
)

// TestReportGolden pins the reproduction report: the paper-size report on
// seed 1 at 1 engine shard, which `go run ./cmd/report -out REPORT.md`
// writes, must equal the committed REPORT.md byte for byte. A change that
// moves a number on purpose regenerates REPORT.md with that command.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile("REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	prev := xen.DefaultShards()
	xen.SetDefaultShards(1)
	defer xen.SetDefaultShards(prev)
	got, err := exps.FullReport(exps.PaperReportConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("report differs from REPORT.md at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report has %d lines, REPORT.md %d", len(gl), len(wl))
}
