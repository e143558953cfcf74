package fault

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestInjectorStateTransitions(t *testing.T) {
	sc := &Scenario{
		Name: "transitions",
		Events: []Event{
			{Epoch: 1, Action: ServerDown, Target: 1},
			{Epoch: 1, Action: CameraStall, Target: 2},
			{Epoch: 2, Action: LinkDegrade, Target: 0, Factor: 0.25},
			{Epoch: 3, Action: ServerUp, Target: 1},
			{Epoch: 3, Action: CameraResume, Target: 2},
			{Epoch: 4, Action: LinkRestore, Target: 0},
		},
	}
	in, err := NewInjector(sc, 3, 4)
	if err != nil {
		t.Fatal(err)
	}

	if evs := in.Advance(0); len(evs) != 0 {
		t.Fatalf("epoch 0 applied %d events", len(evs))
	}
	st := in.State()
	if st.NumHealthy() != 3 || len(st.StalledCameras()) != 0 {
		t.Fatalf("epoch 0 state: %+v", st)
	}

	if evs := in.Advance(1); len(evs) != 2 {
		t.Fatalf("epoch 1 applied %d events, want 2", len(evs))
	}
	st = in.State()
	if !st.Down[1] || st.NumHealthy() != 2 {
		t.Fatalf("server 1 not down: %+v", st)
	}
	if h := st.Healthy(); h == nil || h[1] || !h[0] || !h[2] {
		t.Fatalf("healthy mask wrong: %v", h)
	}
	if got := st.StalledCameras(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("stalled = %v", got)
	}

	in.Advance(2)
	st = in.State()
	if st.LinkScale[0] != 0.25 || st.LinkScale[1] != 1 {
		t.Fatalf("link scales = %v", st.LinkScale)
	}

	in.Advance(3)
	st = in.State()
	if st.Down[1] || len(st.StalledCameras()) != 0 {
		t.Fatalf("recovery not applied: %+v", st)
	}

	in.Advance(4)
	if st = in.State(); st.LinkScale[0] != 1 {
		t.Fatalf("link not restored: %v", st.LinkScale)
	}
	// Past the script: nothing more happens.
	if evs := in.Advance(99); evs != nil {
		t.Fatalf("spurious events: %v", evs)
	}
}

func TestInjectorCatchesUpSkippedEpochs(t *testing.T) {
	sc := &Scenario{Events: []Event{
		{Epoch: 0, Action: ServerDown, Target: 0},
		{Epoch: 2, Action: ServerDown, Target: 1},
		{Epoch: 5, Action: ServerUp, Target: 0},
	}}
	in, err := NewInjector(sc, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Jumping straight to epoch 5 applies everything at or before it, in order.
	evs := in.Advance(5)
	if len(evs) != 3 {
		t.Fatalf("applied %d events, want 3", len(evs))
	}
	st := in.State()
	if st.Down[0] || !st.Down[1] || st.NumHealthy() != 2 {
		t.Fatalf("state after catch-up: %+v", st)
	}
}

func TestStateCopyIsolation(t *testing.T) {
	sc := &Scenario{Events: []Event{{Epoch: 0, Action: ServerDown, Target: 0}}}
	in, _ := NewInjector(sc, 2, 2)
	in.Advance(0)
	st := in.State()
	st.Down[0] = false
	st.LinkScale[1] = 0.1
	if fresh := in.State(); !fresh.Down[0] || fresh.LinkScale[1] != 1 {
		t.Fatal("State() exposed internal slices")
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if evs := in.Advance(3); evs != nil {
		t.Fatalf("nil injector applied events: %v", evs)
	}
	st := in.State()
	if st.Healthy() != nil || st.StalledCameras() != nil || st.NumHealthy() != 0 {
		t.Fatalf("nil injector state not empty: %+v", st)
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Generate(GenOptions{Epochs: 20, Servers: 4, Cameras: 6, Seed: 9, CrashProb: 0.05, StallProb: 0.03, DegradeProb: 0.05})
	if len(sc.Events) == 0 {
		t.Fatal("generated scenario is empty; pick a different seed")
	}
	var buf bytes.Buffer
	if err := sc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip changed the scenario:\n%+v\n%+v", sc, back)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"negative epoch", Event{Epoch: -1, Action: ServerDown, Target: 0}},
		{"server out of range", Event{Epoch: 0, Action: ServerDown, Target: 3}},
		{"camera out of range", Event{Epoch: 0, Action: CameraStall, Target: 5}},
		{"unknown action", Event{Epoch: 0, Action: "meteor_strike", Target: 0}},
		{"factor zero", Event{Epoch: 0, Action: LinkDegrade, Target: 0, Factor: 0}},
		{"factor above one", Event{Epoch: 0, Action: LinkDegrade, Target: 0, Factor: 1.5}},
	}
	for _, tc := range cases {
		sc := &Scenario{Events: []Event{tc.ev}}
		if err := sc.Validate(3, 5); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := NewInjector(sc, 3, 5); err == nil {
			t.Errorf("%s: injector accepted", tc.name)
		}
	}
	ok := &Scenario{Events: []Event{
		{Epoch: 0, Action: LinkDegrade, Target: 2, Factor: 1},
		{Epoch: 1, Action: CameraStall, Target: 4},
	}}
	if err := ok.Validate(3, 5); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opt := GenOptions{Epochs: 30, Servers: 5, Cameras: 8, Seed: 42, CrashProb: 0.05, StallProb: 0.03, DegradeProb: 0.05}
	a, b := Generate(opt), Generate(opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same options produced different scenarios")
	}
	c := Generate(GenOptions{Epochs: 30, Servers: 5, Cameras: 8, Seed: 43, CrashProb: 0.05, StallProb: 0.03, DegradeProb: 0.05})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical scenarios")
	}
}

func TestGenerateZeroProbabilitiesGenerateNothing(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		sc := Generate(GenOptions{Epochs: 50, Servers: 4, Cameras: 6, Seed: seed})
		if len(sc.Events) != 0 {
			t.Fatalf("seed %d: zero probabilities generated %d events: %v", seed, len(sc.Events), sc.Events)
		}
	}
	// One kind on, the others off: only that kind appears.
	sc := Generate(GenOptions{Epochs: 50, Servers: 4, Cameras: 6, Seed: 3, StallProb: 0.2})
	if len(sc.Events) == 0 {
		t.Fatal("stall-only scenario is empty; pick a different seed")
	}
	for _, e := range sc.Events {
		if e.Action != CameraStall && e.Action != CameraResume {
			t.Fatalf("stall-only scenario generated %v", e)
		}
	}
}

func TestGenerateValidAndNeverKillsLastServer(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		opt := GenOptions{
			Epochs: 40, Servers: 3, Cameras: 5, Seed: seed,
			CrashProb: 0.3, StallProb: 0.03, DegradeProb: 0.05,
			MeanOutage: 6, // aggressive: outages overlap across servers
		}
		sc := Generate(opt)
		if err := sc.Validate(opt.Servers, opt.Cameras); err != nil {
			t.Fatalf("seed %d: invalid scenario: %v", seed, err)
		}
		in, err := NewInjector(sc, opt.Servers, opt.Cameras)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for epoch := 0; epoch < opt.Epochs; epoch++ {
			in.Advance(epoch)
			if in.State().NumHealthy() < 1 {
				t.Fatalf("seed %d epoch %d: no healthy servers", seed, epoch)
			}
		}
	}
}

func TestLoadRejectsTrailingData(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"name":"a"}{"name":"b"}`)); err == nil {
		t.Fatal("trailing scenario object accepted")
	}
	if _, err := Load(strings.NewReader(`{"name":"a"} 42`)); err == nil {
		t.Fatal("trailing literal accepted")
	}
	if sc, err := Load(strings.NewReader("{\"name\":\"a\",\"events\":[]}\n  \n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	} else if sc.Name != "a" {
		t.Fatalf("name = %q", sc.Name)
	}
}

func TestScenarioSplit(t *testing.T) {
	sc := &Scenario{Name: "mix", Events: []Event{
		{Epoch: 0, Action: LinkDegrade, Target: 0, Factor: 0.5},
		{Epoch: 1, Action: ServerDown, Target: 1},
		{Epoch: 2, Action: CameraStall, Target: 2},
		{Epoch: 3, Action: ServerUp, Target: 1},
		{Epoch: 4, Action: LinkRestore, Target: 0},
	}}
	liveness, env := sc.Split()
	wantLive := []Event{
		{Epoch: 1, Action: ServerDown, Target: 1},
		{Epoch: 3, Action: ServerUp, Target: 1},
	}
	wantEnv := []Event{
		{Epoch: 0, Action: LinkDegrade, Target: 0, Factor: 0.5},
		{Epoch: 2, Action: CameraStall, Target: 2},
		{Epoch: 4, Action: LinkRestore, Target: 0},
	}
	if !reflect.DeepEqual(liveness.Events, wantLive) {
		t.Fatalf("liveness events = %+v", liveness.Events)
	}
	if !reflect.DeepEqual(env.Events, wantEnv) {
		t.Fatalf("env events = %+v", env.Events)
	}
	if liveness.Name != "mix-liveness" || env.Name != "mix-env" {
		t.Fatalf("names = %q, %q", liveness.Name, env.Name)
	}
	// The original scenario is untouched and the halves cover it exactly.
	if len(liveness.Events)+len(env.Events) != len(sc.Events) {
		t.Fatal("split dropped or duplicated events")
	}
}
