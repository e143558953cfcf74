package exp

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/objective"
	"repro/internal/pamo"
)

func tinyOpts() pamo.Options {
	return pamo.Options{
		InitProfiles: 10, InitObs: 2, PrefPairs: 6, PrefPool: 8,
		Batch: 2, MCSamples: 8, CandPool: 6, MaxIter: 2,
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"a", "bb"}}
	tab.Add(1, 2.5)
	tab.Add("xyz", "w")
	tab.Notes = append(tab.Notes, "a note")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "a ", "bb", "xyz", "2.5", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in rendered table:\n%s", want, out)
		}
	}
}

func TestTableMarkdownRendering(t *testing.T) {
	tab := Table{Title: "md", Header: []string{"a", "b"}}
	tab.Add(1, "x")
	tab.Notes = append(tab.Notes, "note text")
	var sb strings.Builder
	tab.Fmarkdown(&sb)
	out := sb.String()
	for _, want := range []string{"### md", "| a | b |", "| --- | --- |", "| 1 | x |", "*note text*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in markdown:\n%s", want, out)
		}
	}
}

func TestFig2SurfacesMatchPaperShape(t *testing.T) {
	tables := Fig2(io.Discard, 2024)
	if len(tables) != 2 {
		t.Fatalf("expected 2 clips, got %d", len(tables))
	}
	// 7 resolutions × 6 rates rows per clip.
	if len(tables[0].Rows) != 42 {
		t.Fatalf("rows = %d", len(tables[0].Rows))
	}
	// Fitted surfaces track ground truth: compare the mAP column (index 2)
	// with fit_mAP (index 3) row by row.
	for _, row := range tables[0].Rows {
		truth := atofOrFail(t, row[2])
		fit := atofOrFail(t, row[3])
		if truth > 0.1 && (fit < truth*0.8 || fit > truth*1.2) {
			t.Fatalf("fitted mAP %v far from truth %v", fit, truth)
		}
	}
}

func atofOrFail(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func TestFig3LatencyAccumulates(t *testing.T) {
	lat := Fig3Timeline()
	if len(lat) < 10 {
		t.Fatalf("too few frames: %d", len(lat))
	}
	// The overloaded stream's latency trend must grow substantially.
	if lat[len(lat)-1] < 3*lat[0] {
		t.Fatalf("no accumulation: first %v last %v", lat[0], lat[len(lat)-1])
	}
}

func TestFig4SeparatesGroupings(t *testing.T) {
	tab := Fig4(io.Discard)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row 0 (harmonic) jitter column must be ~0; row 1 must be > 0.
	if tab.Rows[0][4] == tab.Rows[1][4] {
		t.Fatalf("groupings indistinguishable: %v", tab.Rows)
	}
}

func TestFig6TinyRun(t *testing.T) {
	rows := Fig6(io.Discard, Fig6Config{
		Videos: 4, Servers: 3, Weights: []float64{1}, Reps: 1,
		Seed: 11, PaMOOpt: tinyOpts(),
	})
	if len(rows) != 5 { // one weight × five objectives
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, m := range r.Results {
			if m.Err != nil {
				t.Fatalf("%s failed: %v", m.Name, m.Err)
			}
			if m.Norm < 0 || m.Norm > 1.05 {
				t.Fatalf("%s normalized benefit %v out of range", m.Name, m.Norm)
			}
		}
		// PaMO+ is the normalization reference: exactly 1.
		last := r.Results[len(r.Results)-1]
		if last.Name != "PaMO+" || last.Norm != 1 {
			t.Fatalf("PaMO+ norm = %v (%s)", last.Norm, last.Name)
		}
	}
}

func TestFig7TinyRun(t *testing.T) {
	rows := Fig7(io.Discard, Fig7Config{
		Nodes: []int{4}, Videos: []int{5}, Reps: 1, Seed: 3, PaMOOpt: tinyOpts(),
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFig8R2ImprovesWithTrainingSize(t *testing.T) {
	res := Fig8(io.Discard, Fig8Config{TrainSizes: []int{40, 300}, Reps: 3, Seed: 5})
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	var worstSmall, worstLarge float64 = 1, 1
	for k := 0; k < 5; k++ {
		if res[0].R2[k] < worstSmall {
			worstSmall = res[0].R2[k]
		}
		if res[1].R2[k] < worstLarge {
			worstLarge = res[1].R2[k]
		}
	}
	if worstLarge < 0.9 {
		t.Fatalf("R² at 300 samples = %v, want > 0.9", worstLarge)
	}
	if worstLarge < worstSmall-0.02 {
		t.Fatalf("R² did not improve: %v -> %v", worstSmall, worstLarge)
	}
}

func TestFig9AccuracyGrows(t *testing.T) {
	res := Fig9(io.Discard, Fig9Config{Pairs: []int{3, 18}, Reps: 4, Seed: 5})
	if res[1].Accuracy < 0.75 {
		t.Fatalf("accuracy at 18 pairs = %v", res[1].Accuracy)
	}
	if res[1].Accuracy < res[0].Accuracy-0.05 {
		t.Fatalf("accuracy regressed: %v -> %v", res[0].Accuracy, res[1].Accuracy)
	}
}

func TestFig10aBaselinesNeverBeatPaMOPlus(t *testing.T) {
	rows := Fig10a(io.Discard, Fig10aConfig{
		Weights: []float64{0.2, 5}, Setups: [][2]int{{3, 4}},
		Seed: 13, PaMOOpt: tinyOpts(),
	})
	for _, r := range rows {
		if r.JCAB > 1.05 || r.FACT > 1.05 {
			t.Fatalf("baseline exceeded the PaMO+ reference: %+v", r)
		}
	}
}

func TestFig10bRuns(t *testing.T) {
	rows := Fig10b(io.Discard, Fig10bConfig{
		Thresholds: []float64{0.1}, Setups: [][2]int{{3, 4}},
		Seed: 17, PaMOOpt: tinyOpts(),
	})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestAblationZeroJitterAdvantage asserts the ablation's claim on seeds
// where First-Fit's random offsets provably make streams contend:
// Algorithm 1's simulated jitter is round-off (at most 1 ns) and
// First-Fit's exceeds 1 ms. The cells are parsed as numbers; on other
// seeds (8, 21 and 23, for instance) First-Fit's jitter is round-off too,
// and the two cells say nothing about each other.
func TestAblationZeroJitterAdvantage(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 5, 13, 42, 2024} {
		tab := AblationZeroJitter(io.Discard, 8, 5, seed)
		if len(tab.Rows) != 2 || tab.Rows[0][0] != "algorithm1" || tab.Rows[1][0] != "first-fit" {
			t.Fatalf("seed %d: rows = %v, want algorithm1 and first-fit", seed, tab.Rows)
		}
		alg1, err1 := strconv.ParseFloat(tab.Rows[0][1], 64)
		ff, err2 := strconv.ParseFloat(tab.Rows[1][1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: unparsable jitters %v", seed, tab.Rows)
		}
		if alg1 > 1e-9 || ff <= 1e-3 {
			t.Fatalf("seed %d: algorithm1 jitter %v s (want ≤ 1 ns), first-fit %v s (want > 1 ms)", seed, alg1, ff)
		}
	}
}

// TestAblationHungarianOptimal asserts the Hungarian-vs-in-order claim:
// Hungarian minimises the total comm latency over group→server matchings,
// and in-order is one such matching, so its total is never below
// Hungarian's on any instance.
func TestAblationHungarianOptimal(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 5, 8, 23} {
		tab := AblationHungarian(io.Discard, 8, 5, seed)
		if len(tab.Rows) != 2 || tab.Rows[0][0] != "hungarian" {
			t.Fatalf("seed %d: rows = %v, want hungarian and in-order", seed, tab.Rows)
		}
		hung, err1 := strconv.ParseFloat(tab.Rows[0][1], 64)
		naive, err2 := strconv.ParseFloat(tab.Rows[1][1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: unparsable latencies %v", seed, tab.Rows)
		}
		if hung > naive {
			t.Fatalf("seed %d: Hungarian comm latency %v above in-order %v", seed, hung, naive)
		}
	}
}

func TestAblationEUBORuns(t *testing.T) {
	tab := AblationEUBO(io.Discard, []int{6}, 2, 29)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestPricingAblationRuns(t *testing.T) {
	rows := Pricing(io.Discard, PricingConfig{
		Videos: 4, Servers: 3, Reps: 1, Seed: 7, PaMOOpt: tinyOpts(),
	})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Benefit == 0 {
			t.Fatalf("method %s produced no benefit value", r.Method)
		}
	}
}

func TestChartBuilders(t *testing.T) {
	if c := Fig3Chart(); len(c.Series) != 1 || len(c.Series[0].Y) == 0 {
		t.Fatal("Fig3Chart empty")
	}
	mk := func(norms ...float64) []MethodResult {
		names := []string{"JCAB", "FACT", "PaMO", "PaMO+"}
		out := make([]MethodResult, 4)
		for i := range out {
			out[i] = MethodResult{Name: names[i], Norm: norms[i]}
		}
		return out
	}
	rows6 := []Fig6Row{
		{Objective: objective.Latency, Weight: 0.2, Results: mk(0.8, 0.9, 1, 1)},
		{Objective: objective.Latency, Weight: 3.2, Results: mk(0.7, 0.8, 0.95, 1)},
	}
	charts6 := Fig6Charts(rows6)
	if len(charts6) != 1 || len(charts6[0].Series) != 4 || len(charts6[0].Series[0].X) != 2 {
		t.Fatalf("Fig6Charts shape wrong: %+v", charts6)
	}
	rows7 := []Fig7Row{
		{Nodes: 5, Videos: 10, Sweep: "nodes", Results: mk(0.8, 0.9, 1, 1)},
		{Nodes: 5, Videos: 8, Sweep: "videos", Results: mk(0.8, 0.9, 1, 1)},
	}
	charts7 := Fig7Charts(rows7)
	if len(charts7) != 2 {
		t.Fatalf("Fig7Charts = %d", len(charts7))
	}
	if len(charts7[0].Series[0].X) != 1 || len(charts7[1].Series[0].X) != 1 {
		t.Fatal("Fig7 sweep split wrong")
	}
	if c := Fig8Chart([]Fig8Result{{TrainSize: 100, R2: [5]float64{0.9, 0.9, 0.9, 0.9, 0.9}}}); len(c.Series) != 5 {
		t.Fatal("Fig8Chart series")
	}
	if c := Fig9Chart([]Fig9Result{{Pairs: 3, Accuracy: 0.7}}); len(c.Series[0].X) != 1 {
		t.Fatal("Fig9Chart")
	}
	if c := Fig10aChart([]Fig10aRow{{Weight: 1, JCAB: 0.8, FACT: 0.9, PaMO: 1, PaMOPlus: 1}}); len(c.Series) != 4 {
		t.Fatal("Fig10aChart")
	}
	if c := NoiseChart([]NoiseRow{{Noise: 0.02, Benefit: -1}}); len(c.Series[0].Y) != 1 {
		t.Fatal("NoiseChart")
	}
	// WriteChart round trip.
	dir := t.TempDir()
	if err := WriteChart(dir, "x", Fig3Chart()); err != nil {
		t.Fatal(err)
	}
}

func TestAverageRunsStd(t *testing.T) {
	sys := NewSystem(4, 3, 19)
	truth := objective.UniformPreference()
	res := averageRuns(sys, MethodsConfig{Truth: truth, Seed: 19, PaMOOpt: tinyOpts()}, 2)
	if len(res) != 4 {
		t.Fatalf("methods = %d", len(res))
	}
	for _, r := range res {
		if r.NormStd < 0 {
			t.Fatalf("%s: negative std %v", r.Name, r.NormStd)
		}
	}
	// Single-rep runs have zero spread.
	res1 := averageRuns(sys, MethodsConfig{Truth: truth, Seed: 19, PaMOOpt: tinyOpts()}, 1)
	for _, r := range res1 {
		if r.NormStd != 0 {
			t.Fatalf("%s: single-rep std %v", r.Name, r.NormStd)
		}
	}
}

func TestHeadlineAggregation(t *testing.T) {
	mk := func(j, f, p, plus float64) []MethodResult {
		return []MethodResult{
			{Name: "JCAB", Norm: j},
			{Name: "FACT", Norm: f},
			{Name: "PaMO", Norm: p},
			{Name: "PaMO+", Norm: plus},
		}
	}
	rows6 := []Fig6Row{
		{Results: mk(0.8, 0.9, 1.0, 1.0)},  // +25% vs JCAB, +11.1% vs FACT
		{Results: mk(0.65, 0.85, 0.98, 1)}, // +50.8% vs JCAB
	}
	rows7 := []Fig7Row{{Results: mk(0.9, 0.95, 0.96, 1)}}
	h := Headline(io.Discard, rows6, rows7)
	if h.Cells != 3 {
		t.Fatalf("cells = %d", h.Cells)
	}
	if h.VsJCABMax < 50 || h.VsJCABMax > 51 {
		t.Fatalf("vs JCAB max = %v", h.VsJCABMax)
	}
	if h.VsFACTMin > 1.1 || h.VsFACTMin < 1.0 {
		t.Fatalf("vs FACT min = %v", h.VsFACTMin)
	}
	if h.GapToPlusMax < 3.9 || h.GapToPlusMax > 4.1 {
		t.Fatalf("gap to PaMO+ = %v", h.GapToPlusMax)
	}
}

func TestNoiseSensitivityRuns(t *testing.T) {
	rows := NoiseSensitivity(io.Discard, NoiseConfig{
		Videos: 4, Servers: 3, Levels: []float64{0.02, 0.2}, Reps: 1,
		Seed: 9, PaMOOpt: tinyOpts(),
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Benefit == 0 {
			t.Fatalf("noise %v produced no result", r.Noise)
		}
	}
}

func TestFeasibilityHeuristicSubsetOfExact(t *testing.T) {
	rows := Feasibility(io.Discard, FeasibilityConfig{Instances: 40, Seed: 11})
	for _, r := range rows {
		if r.HeurOnly != 0 {
			t.Fatalf("heuristic accepted an exact-infeasible instance: %+v", r)
		}
		total := r.BothFeasible + r.ExactOnly + r.BothInfeasible + r.HeurOnly
		if total != 40 {
			t.Fatalf("cell does not account for all instances: %+v", r)
		}
	}
}

func TestNewSystemUplinksFromPaperSet(t *testing.T) {
	sys := NewSystem(4, 10, 31)
	allowed := map[float64]bool{5e6: true, 10e6: true, 15e6: true, 20e6: true, 25e6: true, 30e6: true}
	for _, s := range sys.Servers {
		if !allowed[s.Uplink] {
			t.Fatalf("uplink %v not in the paper's bandwidth set", s.Uplink)
		}
	}
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// Fmarkdown renders the table as GitHub-flavored markdown.
func (t *Table) Fmarkdown(w io.Writer) {
	fmt.Fprintf(w, "\n### %s\n\n", t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
}
