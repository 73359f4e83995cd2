package main

import (
	"sort"
	"strings"
	"testing"
)

// figureReport renders a report skeleton whose Figures 7-9 blocks appear
// in the given order, the way FullReport prints them.
func figureReport(order ...int) string {
	var b strings.Builder
	b.WriteString("# Virtualization-overhead reproduction report\n\n## Model\n\n```\nA\n```\n\n")
	b.WriteString(predictionHead)
	b.WriteString("\n90th-percentile |p-m|/m errors in percent.\n\n```\n")
	for _, fig := range order {
		b.WriteString("Figure " + string(rune('0'+fig)) + " (n RUBiS set(s)):\n")
		b.WriteString(" clients   PM1 CPU\n     300      1.2" + string(rune('0'+fig)) + "\n\n")
	}
	b.WriteString("```\n\n## Overhead-aware provisioning (Figure 10)\n\n```\nrows\n```\n")
	return b.String()
}

func TestNormalizeFiguresBothOrders(t *testing.T) {
	ordered := figureReport(7, 8, 9)
	norm, inOrder, err := normalizeFigures(ordered)
	if err != nil {
		t.Fatal(err)
	}
	if !inOrder || norm != ordered {
		t.Fatalf("an ordered report changed or was flagged: inOrder %v", inOrder)
	}
	// The rotations a three-entry Go map iterates in.
	for _, order := range [][]int{{8, 9, 7}, {9, 7, 8}, {9, 8, 7}} {
		doc := figureReport(order...)
		norm, inOrder, err := normalizeFigures(doc)
		if err != nil {
			t.Fatal(err)
		}
		if inOrder {
			t.Errorf("order %v not counted as a mismatch", order)
		}
		if norm != ordered {
			t.Errorf("order %v normalized to\n%s\nwant\n%s", order, norm, ordered)
		}
		h1, _, _ := reportHash(doc)
		h2, _, _ := reportHash(ordered)
		if h1 != h2 {
			t.Errorf("order %v hashes to %s, ordered report to %s", order, h1, h2)
		}
	}
}

func TestNormalizeFiguresRejectsBrokenSection(t *testing.T) {
	for name, doc := range map[string]string{
		"no section":   "# report\n",
		"two figures":  figureReport(7, 8),
		"not a figure": strings.Replace(figureReport(7, 8, 9), "Figure 8", "Table 8", 1),
		"unclosed":     figureReport(7, 8, 9)[:strings.LastIndex(figureReport(7, 8, 9), "```\n\n## Over")],
	} {
		if _, _, err := normalizeFigures(doc); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// Within one run, the workload seed and every warm seed stay far enough
// apart that no two reports share a section seed (sections add < 100).
func TestReportSeedsKeepApart(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 10, 12345} {
		seeds := []int64{seed}
		for i := 0; i < 100; i++ {
			seeds = append(seeds, warmSeed(seed, i))
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		for i := 1; i < len(seeds); i++ {
			if seeds[i]-seeds[i-1] < 100 {
				t.Fatalf("seed %d: report seeds %d and %d are closer than 100", seed, seeds[i-1], seeds[i])
			}
		}
	}
}
