package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// buildCmd compiles one command into a temp dir and returns the binary path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCmdPamoProfile(t *testing.T) {
	bin := buildCmd(t, "pamo-profile")
	out := run(t, bin, "-clips", "1")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+42 { // header + 7×6 grid
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "clip,resolution,fps") {
		t.Fatalf("header = %q", lines[0])
	}
	// Deterministic across runs.
	if out2 := run(t, bin, "-clips", "1"); out2 != out {
		t.Fatal("pamo-profile not deterministic")
	}
}

func TestCmdPamoSchedJSON(t *testing.T) {
	bin := buildCmd(t, "pamo-sched")
	out := run(t, bin, "-videos", "4", "-servers", "3", "-method", "jcab", "-weights", "1,2,1,1,0.5")
	var payload struct {
		Method   string             `json:"method"`
		Configs  []json.RawMessage  `json:"configs"`
		Outcomes map[string]float64 `json:"outcomes"`
		Benefit  float64            `json:"benefit"`
	}
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if payload.Method != "jcab" || len(payload.Configs) != 4 {
		t.Fatalf("payload: %+v", payload)
	}
	if payload.Outcomes["accuracy"] <= 0 || payload.Benefit >= 0 {
		t.Fatalf("outcomes: %+v benefit %v", payload.Outcomes, payload.Benefit)
	}
}

// runFails runs a command that must be refused and returns its output.
func runFails(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v succeeded, want a refusal:\n%s", bin, args, out)
	}
	return string(out)
}

func TestCmdPamoSchedRejectsBadWeights(t *testing.T) {
	bin := buildCmd(t, "pamo-sched")
	for _, w := range []string{"NaN,1,1,1,1", "1,1,1,1", "1,1,1,1,1,1"} {
		if out := runFails(t, bin, "-videos", "2", "-servers", "2", "-weights", w); !strings.Contains(out, "weights:") {
			t.Fatalf("-weights %s: %s", w, out)
		}
	}
}

func TestCmdPamoControllerInProcessFaults(t *testing.T) {
	bin := buildCmd(t, "pamo-controller")
	dir := t.TempDir()
	scPath := filepath.Join(dir, "scenario.json")
	evPath := filepath.Join(dir, "run.jsonl")
	scenario := `{"name":"kill-one","events":[
		{"epoch":2,"action":"server_down","target":1},
		{"epoch":5,"action":"server_up","target":1}]}`
	if err := os.WriteFile(scPath, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-method", "fixed", "-videos", "6", "-servers", "2", "-seed", "7",
		"-faults", scPath, "-epochs", "8", "-replan-every", "3", "-events", evPath}
	out := run(t, bin, args...)
	var payload struct {
		Method             string  `json:"method"`
		Epochs             int     `json:"epochs"`
		Scenario           string  `json:"scenario"`
		MeanBenefit        float64 `json:"mean_benefit"`
		Replans            int     `json:"replans"`
		DegradedEpochs     int     `json:"degraded_epochs"`
		MaxDegradedStreams int     `json:"max_degraded_streams"`
		FaultEvents        int     `json:"fault_events"`
		FinalShed          []int   `json:"final_shed"`
	}
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if payload.Method != "fixed" || payload.Epochs != 8 || payload.Scenario != "kill-one" {
		t.Fatalf("payload: %+v", payload)
	}
	if payload.FaultEvents != 2 {
		t.Fatalf("fault events = %d, want 2", payload.FaultEvents)
	}
	// Six videos do not fit one server at the fixed config: the outage
	// epochs (2..4) must run degraded, and recovery must restore everything.
	if payload.DegradedEpochs < 1 || payload.MaxDegradedStreams < 1 {
		t.Fatalf("no degradation recorded: %+v", payload)
	}
	if payload.FinalShed == nil || len(payload.FinalShed) != 0 {
		t.Fatalf("final shed = %v after recovery", payload.FinalShed)
	}
	if payload.Replans < 2 {
		t.Fatalf("replans = %d", payload.Replans)
	}

	raw, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fault_server_down", "fault_server_up", "degraded"} {
		if !strings.Contains(string(raw), `"name":"`+name+`"`) {
			t.Fatalf("event stream missing %q", name)
		}
	}

	// Fault runs are deterministic: same scenario, same seed, same output.
	if out2 := run(t, bin, args[:len(args)-2]...); out2 != out {
		t.Fatalf("faulted run not deterministic:\n%s\n%s", out, out2)
	}

	// Churn, chaos and agent counts act through the wire; in-process they
	// are refused.
	for _, extra := range [][]string{{"-churn", "0.5"}, {"-chaos"}, {"-compare-inprocess"}, {"-agents", "4"}} {
		runFails(t, bin, slices.Concat(args[:len(args)-2], extra)...)
	}
}

// TestCmdPamoBenchSingleFigure runs one figure, and pins that a -fig name
// no figure answers to ("roi" names the deleted ROI extension) exits 2 and
// lists the valid names instead of running nothing and exiting 0.
func TestCmdPamoBenchSingleFigure(t *testing.T) {
	bin := buildCmd(t, "pamo-bench")
	out := run(t, bin, "-fig", "4")
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "harmonic") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	for _, name := range []string{"roi", "bogus"} {
		out, err := exec.Command(bin, "-fig", name).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-fig %s: err = %v, want exit status 2:\n%s", name, err, out)
		}
		if !strings.Contains(string(out), "feasibility") || strings.Contains(string(out), "total:") {
			t.Fatalf("-fig %s: output does not list the figures, or ran some:\n%s", name, out)
		}
	}
}

func TestCmdPamoTraceRoundTrip(t *testing.T) {
	bin := buildCmd(t, "pamo-trace")
	path := filepath.Join(t.TempDir(), "t.json")
	out := run(t, bin, "-record", "-videos", "2", "-servers", "2", "-per-cfg", "1", "-o", path)
	if !strings.Contains(out, "recorded") {
		t.Fatalf("record output: %s", out)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file: %v", err)
	}
	sum := run(t, bin, "-summary", "-i", path)
	if !strings.Contains(sum, "2 clips, 2 servers") {
		t.Fatalf("summary: %s", sum)
	}
}

func TestCmdPamoTraceEventsAndSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (fast) PaMO solve")
	}
	traceBin := buildCmd(t, "pamo-trace")
	schedBin := buildCmd(t, "pamo-sched")
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	eventsPath := filepath.Join(dir, "run.jsonl")
	run(t, traceBin, "-record", "-videos", "2", "-servers", "2", "-per-cfg", "1", "-o", tracePath)
	out := run(t, schedBin, "-method", "pamo", "-trace", tracePath, "-fast", "-seed", "2024", "-events", eventsPath)
	var payload struct {
		Videos     int      `json:"videos"`
		Servers    int      `json:"servers"`
		Benefit    *float64 `json:"benefit"`
		Iterations uint64   `json:"iterations"`
	}
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if payload.Videos != 2 || payload.Servers != 2 || payload.Benefit == nil || payload.Iterations == 0 {
		t.Fatalf("run output:\n%s", out)
	}

	// The event stream must be valid JSONL containing all four phase spans
	// of Algorithm 2 plus per-iteration acquisition events.
	raw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	var acqEvents int
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Kind string  `json:"kind"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur_s"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i+1, err, line)
		}
		if ev.Kind == "span" {
			spans[ev.Name] = true
		}
		if ev.Name == "acq" {
			acqEvents++
		}
	}
	for _, phase := range []string{"profiling", "outcome_model", "preference", "solution"} {
		if !spans[phase] {
			t.Fatalf("phase span %q missing; saw %v", phase, spans)
		}
	}
	if acqEvents == 0 {
		t.Fatal("no per-iteration acquisition events recorded")
	}

	sum := run(t, traceBin, "-events-summary", "-events", eventsPath)
	for _, phase := range []string{"profiling", "outcome_model", "preference", "solution", "total_s"} {
		if !strings.Contains(sum, phase) {
			t.Fatalf("events-summary missing %q:\n%s", phase, sum)
		}
	}
}

// TestCmdPamoTracePerfettoAndLedger converts a sharded controller run's
// JSONL stream to a Perfetto trace and renders its ledger table: the
// epoch → decide → shard round → cell → DES hierarchy must be present and
// every epoch's benefit attribution must close exactly.
func TestCmdPamoTracePerfettoAndLedger(t *testing.T) {
	ctlBin := buildCmd(t, "pamo-controller")
	traceBin := buildCmd(t, "pamo-trace")
	dir := t.TempDir()
	scPath := filepath.Join(dir, "scenario.json")
	evPath := filepath.Join(dir, "run.jsonl")
	pfPath := filepath.Join(dir, "run.perfetto.json")
	scenario := `{"name":"kill-one","events":[
		{"epoch":2,"action":"server_down","target":1},
		{"epoch":4,"action":"server_up","target":1}]}`
	if err := os.WriteFile(scPath, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, ctlBin, "-method", "fixed", "-videos", "8", "-servers", "4", "-seed", "11", "-shards", "4",
		"-faults", scPath, "-epochs", "5", "-events", evPath)
	run(t, traceBin, "-perfetto", pfPath, "-events", evPath)
	runFails(t, traceBin, "-perfetto", pfPath)

	raw, err := os.ReadFile(pfPath)
	if err != nil {
		t.Fatal(err)
	}
	var pf struct {
		TraceEvents []struct {
			Ph   string   `json:"ph"`
			Name string   `json:"name"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &pf); err != nil {
		t.Fatalf("perfetto output is not JSON: %v", err)
	}
	spans := map[string]int{}
	for _, e := range pf.TraceEvents {
		if e.Ph == "X" {
			if e.Name == "" || e.Ts == nil || e.Dur == nil || *e.Ts < 0 || *e.Dur < 0 {
				t.Fatalf("bad complete event %+v", e)
			}
			spans[e.Name]++
		}
	}
	for _, want := range []string{"epoch", "decide_attempt", "shard_plan", "shard_round", "shard_cell", "des"} {
		if spans[want] == 0 {
			t.Fatalf("span %q missing from the Perfetto trace; saw %v", want, spans)
		}
	}
	if spans["epoch"] != 5 {
		t.Fatalf("epoch spans = %d, want 5", spans["epoch"])
	}

	sum := run(t, traceBin, "-events-summary", "-events", evPath)
	_, table, ok := strings.Cut(sum, "benefit attribution:\n")
	if !ok {
		t.Fatalf("events-summary has no ledger table:\n%s", sum)
	}
	rows := strings.Split(strings.TrimSpace(table), "\n")
	if len(rows) != 1+5 { // header + one row per epoch
		t.Fatalf("ledger table has %d rows, want 6:\n%s", len(rows), table)
	}
	for _, row := range rows[1:] {
		if !strings.HasSuffix(row, " ok") {
			t.Fatalf("ledger row does not close exactly: %q", row)
		}
	}
}

func TestCmdPamoControllerHollowCompare(t *testing.T) {
	bin := buildCmd(t, "pamo-controller")
	out := run(t, bin, "-videos", "4", "-servers", "2", "-hollow", "2",
		"-epochs", "6", "-strict", "-compare-inprocess")
	var payload struct {
		Epochs       int    `json:"epochs"`
		HollowAgents int    `json:"hollow_agents"`
		Results      uint64 `json:"results_total"`
		Matches      *bool  `json:"wire_matches_inprocess"`
	}
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if payload.Epochs != 6 || payload.HollowAgents != 2 {
		t.Fatalf("payload: %+v", payload)
	}
	if payload.Results != 12 { // 2 servers x 6 epochs
		t.Fatalf("results_total = %d, want 12", payload.Results)
	}
	if payload.Matches == nil || !*payload.Matches {
		t.Fatalf("wire run diverged from in-process: %s", out)
	}
}

func TestCmdPamoControllerChaos(t *testing.T) {
	bin := buildCmd(t, "pamo-controller")
	scPath := filepath.Join(t.TempDir(), "chaos.json")
	// The kills at epoch 2 are inferred at epoch 4 (last beats in epoch 1,
	// epochs 2-3 fully silent with missed-beats=1), so the restart lands
	// at epoch 5, after detection.
	scenario := `{"name":"kill-recover","events":[
		{"epoch":2,"action":"server_down","target":1},
		{"epoch":2,"action":"server_down","target":3},
		{"epoch":5,"action":"server_up","target":1}]}`
	if err := os.WriteFile(scPath, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, bin, "-videos", "6", "-servers", "4", "-hollow", "4",
		"-epochs", "8", "-faults", scPath, "-chaos", "-missed-beats", "1", "-strict")
	var payload struct {
		Scenario     string `json:"scenario"`
		Chaos        bool   `json:"chaos"`
		FaultEvents  int    `json:"fault_events"`
		MinHealthy   int    `json:"min_healthy"`
		FinalHealthy int    `json:"final_healthy"`
		MarksDown    uint64 `json:"marks_down_total"`
		MarksUp      uint64 `json:"marks_up_total"`
	}
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if !payload.Chaos || payload.Scenario != "kill-recover" {
		t.Fatalf("payload: %+v", payload)
	}
	// Both kills inferred from silence, one restart observed, and the
	// healthy count must dip to 2 and recover to 3.
	if payload.MarksDown != 2 || payload.MarksUp != 1 {
		t.Fatalf("marks down/up = %d/%d, want 2/1", payload.MarksDown, payload.MarksUp)
	}
	if payload.MinHealthy != 2 || payload.FinalHealthy != 3 {
		t.Fatalf("healthy min/final = %d/%d, want 2/3", payload.MinHealthy, payload.FinalHealthy)
	}
	if payload.FaultEvents != 3 {
		t.Fatalf("fault events = %d, want 3", payload.FaultEvents)
	}
}

// TestCmdControllerAgentTCP drives the real wire: a controller daemon on a
// kernel-assigned TCP port, an external pamo-agent process hosting both
// servers, graceful shutdown on run completion.
func TestCmdControllerAgentTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two daemon processes")
	}
	ctlBin := buildCmd(t, "pamo-controller")
	agentBin := buildCmd(t, "pamo-agent")

	ctl := exec.Command(ctlBin, "-videos", "4", "-servers", "2",
		"-epochs", "6", "-addr", "127.0.0.1:0", "-agents", "2", "-strict")
	stderr, err := ctl.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var ctlOut bytes.Buffer
	ctl.Stdout = &ctlOut
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = ctl.Process.Kill()
		_ = ctl.Wait()
	}()

	// The daemon prints its bound address on stderr; scan for it.
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "control plane on "); ok {
				urlCh <- strings.TrimSpace(rest)
			}
		}
	}()
	var base string
	select {
	case base = <-urlCh:
	case <-time.After(30 * time.Second):
		t.Fatal("controller never announced its address")
	}

	agentOut, err := exec.Command(agentBin, "-controller", base,
		"-server", "0", "-count", "2", "-give-up", "20s").CombinedOutput()
	if err != nil {
		t.Fatalf("agent: %v\n%s", err, agentOut)
	}
	if !strings.Contains(string(agentOut), "shutdown") {
		t.Fatalf("agent did not observe shutdown:\n%s", agentOut)
	}
	if err := ctl.Wait(); err != nil {
		t.Fatalf("controller: %v", err)
	}
	var payload struct {
		Results uint64 `json:"results_total"`
	}
	if err := json.Unmarshal(ctlOut.Bytes(), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, ctlOut.String())
	}
	if payload.Results != 12 {
		t.Fatalf("results_total = %d, want 12", payload.Results)
	}
}
