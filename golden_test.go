package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/runtime"
	"repro/internal/videosim"
)

// -update rewrites the golden files under testdata/golden/ instead of
// comparing against them:
//
//	go test -run Golden -update .
var update = flag.Bool("update", false, "rewrite golden trace files")

// goldenCompare marshals got as indented JSON and byte-compares it against
// testdata/golden/<name>. Any drift — a changed assignment, a shifted
// benefit in the 15th digit, a reordered field — fails with a diff hint.
// The traces pin end-to-end determinism: same seed, same plan, same bytes.
func goldenCompare(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(data))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update .` to create it)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s drifted from golden (run with -update after verifying the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, data, want)
	}
}

// goldenDecision is the serialized form of one scheduling decision.
type goldenDecision struct {
	Configs []goldenConfig `json:"configs"`
	Assign  []int          `json:"assign"`
	Offsets []float64      `json:"offsets"`
	Benefit string         `json:"benefit"`
	Iters   int            `json:"iters"`
}

type goldenConfig struct {
	Resolution float64 `json:"resolution"`
	FPS        float64 `json:"fps"`
}

// TestGoldenPaMOTrace pins a full PaMO+ optimization byte-exactly: seeds,
// RNG stream derivation, GP conditioning order, acquisition scoring, and
// Algorithm 1 placement all feed this output, so an unintended change in
// any of them shows up as golden drift. The run executes under a strict
// checker — the golden fixture is also a regression test for the harness
// accepting its own scheduler.
func TestGoldenPaMOTrace(t *testing.T) {
	sys := exp.NewSystem(4, 3, 2024)
	rec := obs.NewRecorder(nil)
	truth := objective.UniformPreference()
	opt := pamo.Options{
		Seed: 7, TruePref: &truth,
		InitProfiles: 12, InitObs: 3, PrefPairs: 10, PrefPool: 12,
		Batch: 2, MCSamples: 16, CandPool: 10, MaxIter: 4,
		Workers: 1,
		Obs:     rec, Check: check.New(true, rec),
	}
	res, err := pamo.New(sys, nil, opt).Run()
	if err != nil {
		t.Fatal(err)
	}
	d := res.Best.Decision
	g := goldenDecision{
		Assign:  d.Assign,
		Offsets: d.Offsets,
		Benefit: fmt.Sprintf("%.15g", res.Best.Benefit),
		Iters:   res.Iters,
	}
	for _, c := range d.Configs {
		g.Configs = append(g.Configs, goldenConfig{Resolution: c.Resolution, FPS: c.FPS})
	}
	goldenCompare(t, "pamo_trace.json", g)
}

// goldenEpoch is the serialized form of one controller epoch.
type goldenEpoch struct {
	Epoch     int    `json:"epoch"`
	Benefit   string `json:"benefit"`
	MaxJitter string `json:"max_jitter_s"`
	Replanned bool   `json:"replanned"`
	Degraded  bool   `json:"degraded"`
	Healthy   int    `json:"healthy_servers"`
	Shed      []int  `json:"shed"`
	Streams   []int  `json:"server_streams"`
}

// TestGoldenFaultRun pins a fault-injected controller run byte-exactly:
// the crash/recovery schedule, forced replans, degradation decisions, and
// the discrete-event simulation results behind every epoch's benefit. It
// runs under a strict checker, so every installed decision — including the
// degraded mid-outage ones — must also pass the exact verifier.
func TestGoldenFaultRun(t *testing.T) {
	clips := make([]*videosim.Clip, 6)
	for i := range clips {
		clips[i] = &videosim.Clip{
			Name: fmt.Sprintf("cam%d", i), AccBase: 0.9,
			AccFactor: 1, ComputeFac: 1, BitFac: 1, EnergyFac: 1,
		}
	}
	servers := make([]cluster.Server, 3)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: float64(10+5*j) * 1e6}
	}
	sys := &objective.System{Clips: clips, Servers: servers}
	sc := &fault.Scenario{Name: "golden-crash", Events: []fault.Event{
		{Epoch: 2, Action: fault.ServerDown, Target: 0},
		{Epoch: 4, Action: fault.ServerDown, Target: 2},
		{Epoch: 7, Action: fault.ServerUp, Target: 0},
	}}
	inj, err := fault.NewInjector(sc, sys.N(), sys.M())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	c := &runtime.Controller{
		Sys:    sys,
		Sched:  &runtime.FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}},
		Truth:  objective.UniformPreference(),
		Norm:   objective.NewNormalizer(sys),
		Opt:    runtime.Options{ReplanEvery: 100, Check: check.New(true, rec)},
		Faults: inj,
		Obs:    rec,
	}
	trace, err := c.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	var gold []goldenEpoch
	for _, r := range trace.Reports {
		shed := r.Shed
		if shed == nil {
			shed = []int{}
		}
		gold = append(gold, goldenEpoch{
			Epoch:     r.Epoch,
			Benefit:   fmt.Sprintf("%.15g", r.Benefit),
			MaxJitter: fmt.Sprintf("%.9g", r.MaxJitter),
			Replanned: r.Replanned,
			Degraded:  r.Degraded,
			Healthy:   r.HealthyServers,
			Shed:      shed,
			Streams:   r.ServerStreams,
		})
	}
	goldenCompare(t, "fault_run.json", gold)
}

// goldenLedger is the serialized form of one epoch's benefit-attribution
// ledger. Loss buckets are pinned as %.17g strings so the fixture captures
// every bit: Close() guarantees shed+drift+fault equals
// planned−realized exactly, and this test re-verifies that equality on the
// live floats before serializing.
type goldenLedger struct {
	Epoch      int    `json:"epoch"`
	Planned    string `json:"planned"`
	Realized   string `json:"realized"`
	ShedLoss   string `json:"shed_loss"`
	DriftLoss  string `json:"drift_loss"`
	FaultLoss  string `json:"fault_loss"`
	FellBack   bool   `json:"fell_back"`
	Degraded   bool   `json:"degraded"`
	Shed       []int  `json:"shed_videos"`
	Downgraded []int  `json:"downgraded_videos"`
	Down       []int  `json:"servers_down"`
}

// TestGoldenLedger pins the benefit-attribution ledger of a fault-injected
// run byte-exactly and enforces the ledger's core invariant on every epoch:
// Σ(loss buckets) == planned − realized with exact float equality (the
// acceptance bar for the attribution plane — no epsilon). The run mirrors
// TestGoldenFaultRun's crash/recovery schedule so the two fixtures describe
// the same trajectory from two angles: what happened vs why benefit was lost.
func TestGoldenLedger(t *testing.T) {
	clips := make([]*videosim.Clip, 6)
	for i := range clips {
		clips[i] = &videosim.Clip{
			Name: fmt.Sprintf("cam%d", i), AccBase: 0.9,
			AccFactor: 1, ComputeFac: 1, BitFac: 1, EnergyFac: 1,
		}
	}
	servers := make([]cluster.Server, 3)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: float64(10+5*j) * 1e6}
	}
	sys := &objective.System{Clips: clips, Servers: servers}
	sc := &fault.Scenario{Name: "golden-crash", Events: []fault.Event{
		{Epoch: 2, Action: fault.ServerDown, Target: 0},
		{Epoch: 4, Action: fault.ServerDown, Target: 2},
		{Epoch: 7, Action: fault.ServerUp, Target: 0},
	}}
	inj, err := fault.NewInjector(sc, sys.N(), sys.M())
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	rec := obs.NewRecorder(&stream)
	c := &runtime.Controller{
		Sys:    sys,
		Sched:  &runtime.FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}},
		Truth:  objective.UniformPreference(),
		Norm:   objective.NewNormalizer(sys),
		Opt:    runtime.Options{ReplanEvery: 100, Check: check.New(true, rec)},
		Faults: inj,
		Obs:    rec,
	}
	const epochs = 10
	if _, err := c.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	// The ledgers are read back from the JSONL stream the recorder wrote:
	// JSON round-trips float64 exactly, so the pinned digits are the
	// in-memory values.
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&stream)
	if err != nil {
		t.Fatal(err)
	}
	var ledgers []obs.EpochLedger
	for _, ev := range evs {
		if ev.Kind == "ledger" {
			ledgers = append(ledgers, *ev.Ledger)
		}
	}
	if len(ledgers) != epochs {
		t.Fatalf("got %d ledgers, want %d", len(ledgers), epochs)
	}
	var gold []goldenLedger
	for i := range ledgers {
		l := &ledgers[i]
		if !l.CheckExact() {
			t.Fatalf("epoch %d ledger inexact: Σbuckets=%.17g gap=%.17g",
				l.Epoch, l.SumBuckets(), l.Gap())
		}
		empty := func(s []int) []int {
			if s == nil {
				return []int{}
			}
			return s
		}
		gold = append(gold, goldenLedger{
			Epoch:      l.Epoch,
			Planned:    fmt.Sprintf("%.17g", l.Planned),
			Realized:   fmt.Sprintf("%.17g", l.Realized),
			ShedLoss:   fmt.Sprintf("%.17g", l.ShedLoss),
			DriftLoss:  fmt.Sprintf("%.17g", l.DriftLoss),
			FaultLoss:  fmt.Sprintf("%.17g", l.FaultLoss),
			FellBack:   l.FellBack,
			Degraded:   l.Degraded,
			Shed:       empty(l.ShedVideos),
			Downgraded: empty(l.DowngradedVideos),
			Down:       empty(l.ServersDown),
		})
	}
	goldenCompare(t, "ledger_run.json", gold)
}
