package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/stats"
)

// TestSchedulerOfflineMatchesDirectCalls pins the method table's epoch-0
// decision to the direct library calls an offline decision is defined by:
// PaMO with an oracle DM and EUBO pair selection, PaMO+ on the true
// preference, and the baselines at the base seed.
func TestSchedulerOfflineMatchesDirectCalls(t *testing.T) {
	truth := objective.Preference{W: objective.Vector{1, 2, 1, 1, 0.5}}
	const seed = 7
	base := tinyOpts()
	base.Seed = seed
	direct := map[string]func(sys *objective.System) (eva.Decision, error){
		"pamo": func(sys *objective.System) (eva.Decision, error) {
			opt := base
			res, err := pamo.New(sys, &pref.Oracle{Pref: truth, Rng: stats.NewRNG(seed)}, opt).Run()
			if err != nil {
				return eva.Decision{}, err
			}
			return res.Best.Decision, nil
		},
		"pamo+": func(sys *objective.System) (eva.Decision, error) {
			opt := base
			opt.TruePref = &truth
			res, err := pamo.New(sys, nil, opt).Run()
			if err != nil {
				return eva.Decision{}, err
			}
			return res.Best.Decision, nil
		},
		"jcab": func(sys *objective.System) (eva.Decision, error) {
			return baselines.JCAB(context.Background(), sys, baselines.JCABOptions{
				WAcc: truth.W[objective.Accuracy], WEng: truth.W[objective.Energy], Seed: seed})
		},
		"fact": func(sys *objective.System) (eva.Decision, error) {
			return baselines.FACT(context.Background(), sys, baselines.FACTOptions{
				WLat: truth.W[objective.Latency], WAcc: truth.W[objective.Accuracy], Seed: seed})
		},
	}
	for method, want := range direct {
		s, err := Scheduler(method, truth, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Decide(context.Background(), NewSystem(3, 2, seed), 0)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		ref, err := want(NewSystem(3, 2, seed))
		if err != nil {
			t.Fatalf("%s direct: %v", method, err)
		}
		if !reflect.DeepEqual(got.Configs, ref.Configs) || !reflect.DeepEqual(got.Assign, ref.Assign) {
			t.Fatalf("%s: table decision %v/%v, direct call %v/%v", method, got.Configs, got.Assign, ref.Configs, ref.Assign)
		}
	}

	fixed, err := Scheduler("fixed", truth, base)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fixed.Decide(context.Background(), NewSystem(3, 2, seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Configs {
		if c.Resolution != 1000 || c.FPS != 10 {
			t.Fatalf("fixed config %+v", c)
		}
	}
	if _, err := Scheduler("greedy", truth, base); err == nil {
		t.Fatal("unknown method accepted")
	}
}
