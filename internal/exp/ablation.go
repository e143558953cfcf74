package exp

import (
	"fmt"
	"io"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/sched"
	"repro/internal/stats"
)

// AblationAcqConfig parameterizes the acquisition-function ablation
// (the paper's PaMO_{qUCB/qSR/qEI} variants).
type AblationAcqConfig struct {
	Videos, Servers int
	Reps            int
	Noise           float64 // profiling noise (0 = default 2%); the paper's anti-noise claim shows at high values
	Seed            uint64
	PaMOOpt         pamo.Options
}

// AblationAcqRow is one acquisition variant's average result.
type AblationAcqRow struct {
	Acq     pamo.Acquisition
	Benefit float64 // mean true benefit
	Iters   float64 // mean iterations to termination
}

// AblationAcq compares qNEI against qEI/qUCB/qSR on identical instances.
func AblationAcq(w io.Writer, cfg AblationAcqConfig) []AblationAcqRow {
	if cfg.Videos == 0 {
		cfg.Videos = 8
	}
	if cfg.Servers == 0 {
		cfg.Servers = 5
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	truth := objective.UniformPreference()
	title := "Ablation — acquisition functions (mean true benefit; higher is better)"
	if cfg.Noise > 0 {
		title = fmt.Sprintf("%s, noise %.0f%%", title, cfg.Noise*100)
	}
	t := Table{
		Title:  title,
		Header: []string{"acquisition", "benefit", "iterations"},
	}
	var rows []AblationAcqRow
	for _, a := range []pamo.Acquisition{pamo.QNEI, pamo.QEI, pamo.QUCB, pamo.QSR} {
		var sumB, sumI float64
		for rep := 0; rep < cfg.Reps; rep++ {
			sys := NewSystem(cfg.Videos, cfg.Servers, cfg.Seed+uint64(rep)*31)
			norm := objective.NewNormalizer(sys)
			opt := cfg.PaMOOpt
			opt.Seed = cfg.Seed + uint64(rep)
			opt.Acq = a
			if cfg.Noise > 0 {
				opt.ProfilerNoise = cfg.Noise
			}
			dm := &pref.Oracle{Pref: truth, Rng: stats.NewRNG(cfg.Seed + uint64(rep))}
			res, err := pamo.New(sys, dm, opt).Run()
			if err != nil {
				continue
			}
			sumB += truth.Benefit(norm.Normalize(res.Best.Raw))
			sumI += float64(res.Iters)
		}
		row := AblationAcqRow{Acq: a, Benefit: sumB / float64(cfg.Reps), Iters: sumI / float64(cfg.Reps)}
		rows = append(rows, row)
		t.Add(string(a), row.Benefit, row.Iters)
	}
	t.Fprint(w)
	return rows
}

// AblationEUBO compares EUBO-selected comparison pairs against random
// pairs at equal budgets (the design choice of Section 4.2).
func AblationEUBO(w io.Writer, budgets []int, reps int, seed uint64) Table {
	if len(budgets) == 0 {
		budgets = []int{3, 9, 18}
	}
	if reps == 0 {
		reps = 6
	}
	truth := objective.Preference{W: objective.Vector{0.2, 1, 1.6, 3.2, 1}}
	t := Table{
		Title:  "Ablation — EUBO vs random comparison-pair selection (pairwise accuracy)",
		Header: []string{"pairs", "eubo", "random"},
	}
	for _, budget := range budgets {
		var accE, accR float64
		for rep := 0; rep < reps; rep++ {
			rng := stats.NewRNG(seed + uint64(budget*100+rep))
			pool := make([]objective.Vector, 24)
			for i := range pool {
				for k := range pool[i] {
					pool[i][k] = rng.Float64()
				}
			}
			for _, useEUBO := range []bool{true, false} {
				dm := &pref.Oracle{Pref: truth}
				l := pref.NewLearner(dm, useEUBO, stats.NewRNG(seed+uint64(rep)*7+boolTo(useEUBO)))
				if err := l.Learn(pool, budget); err != nil {
					continue
				}
				a := pref.PairwiseAccuracy(l.Model, truth, 300, stats.NewRNG(seed+uint64(rep)+99))
				if useEUBO {
					accE += a
				} else {
					accR += a
				}
			}
		}
		t.Add(budget, accE/float64(reps), accR/float64(reps))
	}
	t.Fprint(w)
	return t
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AblationZeroJitter contrasts Algorithm 1 (Const2 grouping + Theorem 1
// offsets) with utilization-only First-Fit placement on the same workload,
// measured by the DES: jitter, worst queueing delay, and mean latency.
func AblationZeroJitter(w io.Writer, videos, servers int, seed uint64) Table {
	if videos == 0 {
		videos = 8
	}
	if servers == 0 {
		servers = 5
	}
	sys := NewSystem(videos, servers, seed)
	rng := stats.NewRNG(seed + 0x2F)
	streams := buildUniformStreams(sys, 1000, 10)

	t := Table{
		Title:  "Ablation — zero-jitter scheduling (Algorithm 1) vs First-Fit",
		Header: []string{"policy", "max_jitter_s", "max_wait_s", "mean_latency_s"},
	}

	if plan, err := sched.Schedule(streams, sys.Servers); err == nil {
		results := eva.Simulate(sys, eva.ZeroJitterDecision(nil, streams, plan, sys.Servers))
		t.Add("algorithm1", cluster.MaxJitter(results), maxWait(results), cluster.MeanLatency(results))
	} else {
		t.Add("algorithm1", "infeasible", "-", "-")
	}

	if assign, failed := baselines.FirstFit(streams, servers); failed < 0 {
		results := eva.Simulate(sys, eva.Decision{Streams: streams, Assign: assign, Offsets: eva.RandomOffsets(streams, rng)})
		t.Add("first-fit", cluster.MaxJitter(results), maxWait(results), cluster.MeanLatency(results))
	} else {
		t.Add("first-fit", "infeasible", "-", "-")
	}
	t.Fprint(w)
	return t
}

func buildUniformStreams(sys *objective.System, res, fps float64) []sched.Stream {
	streams := make([]sched.Stream, sys.M())
	for i, c := range sys.Clips {
		streams[i] = sched.Stream{
			Video:  i,
			Period: sched.RatFromFPS(int64(fps)),
			Proc:   c.ProcTime(res),
			Bits:   c.BitsPerFrame(res),
		}
	}
	return sched.SplitHighRate(streams)
}

func maxWait(results []cluster.Result) float64 {
	var m float64
	for _, r := range results {
		if r.MaxWait > m {
			m = r.MaxWait
		}
	}
	return m
}

// AblationHungarian compares Hungarian group→server mapping against a
// naive in-order mapping on the communication-latency objective.
func AblationHungarian(w io.Writer, videos, servers int, seed uint64) Table {
	if videos == 0 {
		videos = 8
	}
	if servers == 0 {
		servers = 5
	}
	sys := NewSystem(videos, servers, seed)
	streams := buildUniformStreams(sys, 1250, 10)
	t := Table{
		Title:  "Ablation — Hungarian vs in-order group→server mapping (total comm latency)",
		Header: []string{"mapping", "comm_latency_s"},
	}
	groups, err := sched.GroupStreams(streams, servers)
	if err != nil {
		t.Add("both", "infeasible")
		t.Fprint(w)
		return t
	}
	plan, err := sched.MapGroups(groups, streams, sys.Servers)
	if err != nil {
		t.Add("both", "infeasible")
		t.Fprint(w)
		return t
	}
	t.Add("hungarian", plan.CommLatency)

	// In-order mapping: group g → server g.
	var naive float64
	for g, members := range groups {
		for _, si := range members {
			naive += streams[si].Bits / sys.Servers[g].Uplink
		}
	}
	t.Add("in-order", naive)
	t.Notes = append(t.Notes, "Hungarian cost is optimal: it is never above the in-order mapping")
	t.Fprint(w)
	return t
}
