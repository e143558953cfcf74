package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/acq"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/ctlplane"
	"repro/internal/eva"
	"repro/internal/gp"
	"repro/internal/hungarian"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/objective"
	"repro/internal/pref"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// A probe makes probeWarm untimed calls, then probeCalls timed ones, and
// reports their median. The smoke scale lowers both.
var probeWarm, probeCalls = 20, 200

// timeProbe reports the median duration of f in microseconds. prep, when
// non-nil, runs before every call and is not timed.
func timeProbe(prep, f func()) float64 {
	durs := make([]float64, 0, probeCalls)
	for i := 0; i < probeWarm+probeCalls; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		d := time.Since(t0)
		if i >= probeWarm {
			durs = append(durs, float64(d)/float64(time.Microsecond))
		}
	}
	return median(durs)
}

// probe calls each layer's public functions directly, on the inputs the
// traced days captured, and reports one median per layer metric. A workload
// probes the layers it exercises; the rest stay 0.
func probe(w *workload, seed uint64, cap *capture) map[string]metric {
	out := map[string]metric{}
	set := func(name string, us float64) { out[name] = metric{Value: us} }
	if cap.sys == nil {
		return out
	}
	rng := stats.NewRNG(seed ^ 0xB0B)
	switch w.Name {
	case "dense_day":
		probeGP(set, cap.sys.Clips[0], 120, ".n120", rng, true)
		probePreference(set, rng)
		probeAcq(set, rng)
		probeDecision(set, cap, "", true)
	case "churn_day":
		probeGP(set, cap.sys.Clips[0], 12, ".n12", rng, false)
		probePreference(set, rng)
		probeDecision(set, cap, ".small", true)
		probeSched(set, cap.decision.Streams, cap.sys.Servers, ".small", rng)
		probeChurn(set, cap.decision.Streams, cap.sys.Servers)
	case "fleet_place":
		// The sharded path hands the scheduler cells, not a decision:
		// rebuild the decision the serial path takes on the captured system.
		d, err := (&runtime.FixedScheduler{Cfg: fixedCfg}).Decide(context.Background(), cap.sys, 0)
		if err != nil {
			return out
		}
		cap.decision, cap.decided = d, true
		probeDecision(set, cap, ".m512", false)
		probeSched(set, d.Streams, cap.sys.Servers, ".m512", rng)
		set("shard.partition_us", timeProbe(nil, func() { shard.PartitionVideos(cap.sys.M(), 4) }))
	case "wire_day":
		probeDecision(set, cap, "", false)
		probeWire(set, cap.sys)
	}
	return out
}

// profilePoints rebuilds one clip's profiling set the way pamo's profiling
// phase does: a Latin hypercube over the knob grid snapped to grid points,
// plus the two grid corners, with standardized accuracy targets.
func profilePoints(clip *videosim.Clip, n int, rng *rand.Rand) ([][]float64, []float64) {
	encode := func(c videosim.Config) []float64 {
		res, fps := videosim.Resolutions, videosim.FrameRates
		return []float64{
			(c.Resolution - res[0]) / (res[len(res)-1] - res[0]),
			(c.FPS - fps[0]) / (fps[len(fps)-1] - fps[0]),
			1,
		}
	}
	snap := func(grid []float64, u float64) float64 {
		return grid[min(int(u*float64(len(grid))), len(grid)-1)]
	}
	var cfgs []videosim.Config
	for _, p := range stats.LatinHypercube(n, 3, rng) {
		cfgs = append(cfgs, videosim.Config{Resolution: snap(videosim.Resolutions, p[0]), FPS: snap(videosim.FrameRates, p[1])})
	}
	grid := eva.ConfigGrid()
	cfgs = append(cfgs, grid[0], grid[len(grid)-1])
	prof := videosim.NewProfiler(0.02, rng)
	xs := make([][]float64, len(cfgs))
	ys := make([]float64, len(cfgs))
	for i, c := range cfgs {
		xs[i] = encode(c)
		ys[i] = prof.Measure(clip, c).Acc
	}
	mean := mat.Vector(ys).Mean()
	var ss float64
	for _, y := range ys {
		ss += (y - mean) * (y - mean)
	}
	sd := math.Sqrt(ss / float64(len(ys)))
	for i := range ys {
		ys[i] = (ys[i] - mean) / sd
	}
	return xs, ys
}

// outcomeKernel is the kernel pamo gives its outcome models.
func outcomeKernel() kernel.Kernel {
	k := kernel.NewMatern52(3)
	p := k.LogParams()
	p[1], p[2], p[3] = math.Log(0.4), math.Log(0.4), math.Log(0.5)
	k.SetLogParams(p)
	return k
}

const outcomeNoise = 1e-3

// probeGP times the outcome-model stack bottom-up on one clip's profile
// points: kernel evaluation, the Cholesky kernels, then the GP operations
// built on them. full adds everything beyond the fit.
func probeGP(set func(string, float64), clip *videosim.Clip, n int, suffix string, rng *rand.Rand, full bool) {
	xs, ys := profilePoints(clip, n, rng)
	last := len(xs) - 1
	k := outcomeKernel()

	g := gp.New(k, outcomeNoise)
	set("gp.fit_us"+suffix, timeProbe(nil, func() { _ = g.Fit(xs, ys) }))
	if !full {
		return
	}
	gram := func() *mat.Matrix {
		a := mat.NewMatrix(len(xs), len(xs))
		for i := range xs {
			for j := range xs {
				a.Set(i, j, k.Eval(xs[i], xs[j]))
			}
		}
		return a
	}
	set("kernel.gram_us"+suffix, timeProbe(nil, func() { gram() }))

	a := gram()
	a.AddScaledEye(outcomeNoise)
	set("mat.chol_us"+suffix, timeProbe(nil, func() { _, _ = mat.CholJitter(a) }))
	sub := mat.NewMatrix(last, last)
	col := mat.NewVector(last)
	for i := 0; i < last; i++ {
		copy(sub.Row(i), a.Row(i)[:last])
		col[i] = a.At(i, last)
	}
	var c *mat.Cholesky
	set("mat.chol_extend_us"+suffix, timeProbe(
		func() { c, _ = mat.CholJitter(sub) },
		func() { _ = c.Extend(col, a.At(last, last)) }))
	c, _ = mat.CholJitter(a)
	set("mat.solve_vec_us"+suffix, timeProbe(nil, func() { c.SolveVec(ys) }))

	set("gp.add_obs_us"+suffix, timeProbe(
		func() { _ = g.Fit(xs[:last], ys[:last]) },
		func() { _ = g.AddObservation(xs[last], ys[last]) }))
	_ = g.Fit(xs, ys)
	// A candidate pool the size pamo scores per iteration.
	pool := make([][]float64, 12)
	for i := range pool {
		pool[i] = []float64{rng.Float64(), rng.Float64(), 1}
	}
	set("gp.predict_batch_us"+suffix, timeProbe(nil, func() { g.PredictBatch(pool) }))
	set("gp.sample_joint_us"+suffix, timeProbe(nil, func() { g.SampleJoint(pool, 16, rng) }))

	sp := gp.NewSparse(k, outcomeNoise, gp.SparseOptions{})
	set("gp.sparse_fit_us"+suffix, timeProbe(nil, func() { _ = sp.Fit(xs, ys) }))
	set("gp.sparse_add_obs_us"+suffix, timeProbe(
		func() { _ = sp.Fit(xs[:last], ys[:last]) },
		func() { _ = sp.AddObservation(xs[last], ys[last]) }))
}

// probePreference times the preference model on a pool and a comparison
// budget the size both PaMO workloads use.
func probePreference(set func(string, float64), rng *rand.Rand) {
	const poolSize, pairs = 10, 8
	pool := make([]objective.Vector, poolSize)
	pts := make([][]float64, poolSize)
	for i := range pool {
		for k := range pool[i] {
			pool[i][k] = rng.Float64()
		}
		pts[i] = pool[i].Slice()
	}
	l := pref.NewLearner(&pref.Oracle{Pref: truth}, true, rng)
	if err := l.Learn(pool, pairs); err != nil {
		return
	}
	set("prefgp.fit_us", timeProbe(nil, func() { _ = l.Model.Fit() }))
	set("prefgp.predict_us", timeProbe(nil, func() { l.Model.Predict(pts) }))
	set("acq.eubo_select_us", timeProbe(nil, func() { acq.SelectEUBOPair(l.Model, pts) }))
}

// probeAcq times the shared-sample scorer on a draw matrix of the dense
// day's shape: MCSamples draws over a universe of candidates plus observed
// points.
func probeAcq(set func(string, float64), rng *rand.Rand) {
	const samples, cands, observed = 16, 12, 8
	z := make([][]float64, samples)
	for s := range z {
		z[s] = make([]float64, cands+observed)
		for i := range z[s] {
			z[s][i] = rng.NormFloat64()
		}
	}
	obsCols := make([]int, observed)
	for i := range obsCols {
		obsCols[i] = cands + i
	}
	var sc *acq.SharedScorer
	set("acq.shared_build_us", timeProbe(nil, func() { sc = acq.NewSharedQNEI(z, obsCols) }))
	set("acq.score_us", timeProbe(nil, func() {
		for c := 0; c < cands; c++ {
			sc.Score(c)
		}
	}))
}

// serverSpecs is the DES input of one server under a decision, built as the
// runtime's evaluation builds it.
func serverSpecs(d eva.Decision, server int) []cluster.StreamSpec {
	var specs []cluster.StreamSpec
	for i, a := range d.Assign {
		if a != server {
			continue
		}
		off := 0.0
		if d.Offsets != nil {
			off = d.Offsets[i]
		}
		specs = append(specs, cluster.StreamSpec{Period: d.Streams[i].Period.Float(), Offset: off, Proc: d.Streams[i].Proc, Bits: d.Streams[i].Bits})
	}
	return specs
}

// probeDecision times what every installed decision goes through: the exact
// feasibility audit, the ground-truth evaluation, and one server's DES.
func probeDecision(set func(string, float64), cap *capture, suffix string, evaluate bool) {
	if !cap.decided || len(cap.decision.Assign) == 0 {
		return
	}
	d, sys := cap.decision, cap.sys
	if suffix != "" {
		chk := check.New(true, nil)
		set("check.verify_decision_us"+suffix, timeProbe(nil, func() { _ = chk.VerifyDecisionServers(d, sys.Servers) }))
	}
	if evaluate && len(d.Shed) == 0 && len(d.Configs) == sys.M() {
		set("eva.evaluate_us", timeProbe(nil, func() { eva.Evaluate(sys, d) }))
	}
	busiest := d.Assign[0]
	specs := serverSpecs(d, busiest)
	set("cluster.zero_jitter_offsets_us", timeProbe(nil, func() { cluster.ZeroJitterOffsetsInPlaceOn(specs, sys.Servers[busiest]) }))
	if cap.frames > 0 {
		// The wire's agents run the DES out of the recorder's sight: time
		// one server's simulation here instead.
		arena := cluster.NewArena()
		us := timeProbe(nil, func() { arena.SimulateServer(specs, sys.Servers[busiest], eva.EvalHorizon) })
		set("cluster.des_us_per_server", us)
		set("cluster.des_ms_per_epoch", us*float64(sys.N())/1000)
		return
	}
	frames := 0
	for j := range sys.Servers {
		frames += len(cluster.SimulateServer(serverSpecs(d, j), sys.Servers[j], eva.EvalHorizon).Frames)
	}
	set("cluster.frames_per_epoch", float64(frames))
}

// probeSched times Algorithm 1 and its parts on a captured stream set.
func probeSched(set func(string, float64), streams []sched.Stream, servers []cluster.Server, suffix string, rng *rand.Rand) {
	n := len(servers)
	set("sched.schedule_us"+suffix, timeProbe(nil, func() { _, _ = sched.Schedule(streams, servers) }))
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64()
		}
	}
	if suffix == ".small" {
		set("hungarian.solve_us.small", timeProbe(nil, func() { hungarian.Solve(cost) }))
		return
	}
	set("hungarian.solve_us.n64", timeProbe(nil, func() { hungarian.Solve(cost) }))
	groups, err := sched.GroupStreams(streams, n)
	if err != nil {
		return
	}
	set("sched.group_us"+suffix, timeProbe(nil, func() { _, _ = sched.GroupStreams(streams, n) }))
	set("sched.map_groups_us"+suffix, timeProbe(nil, func() { _, _ = sched.MapGroups(groups, streams, servers) }))
	rp := sched.NewReplanner()
	if _, _, err := rp.Replan(streams, servers, nil); err != nil {
		return
	}
	set("sched.replan_warm_us"+suffix, timeProbe(nil, func() { _, _, _ = rp.Replan(streams, servers, nil) }))
}

// probeChurn times the exact admit/evict pair on the captured grouping: the
// last stream leaves the frozen baseline and is admitted back.
func probeChurn(set func(string, float64), streams []sched.Stream, servers []cluster.Server) {
	if len(streams) < 2 {
		return
	}
	plan, err := sched.Schedule(streams, servers)
	if err != nil {
		return
	}
	rp := sched.NewReplanner()
	mask := make([]bool, len(streams))
	mask[len(streams)-1] = true
	leaver := streams[len(streams)-1]
	set("sched.evict_us", timeProbe(
		func() { rp.Adopt(streams, plan) },
		func() { rp.Evict(mask) }))
	set("sched.admit_us", timeProbe(
		func() { rp.Adopt(streams, plan); rp.Evict(mask) },
		func() { rp.Admit(leaver, servers, nil) }))
}

// probeWire times one request through the in-memory transport against an
// idle controller: a registered agent's heartbeat.
func probeWire(set func(string, float64), sys *objective.System) {
	rt := wireRuntime(sys, &runtime.FixedScheduler{Cfg: fixedCfg}, nil)
	ctl := ctlplane.New(rt, ctlplane.Options{})
	cl := ctlplane.LoopbackClient(ctl, 1)
	post := func(path string, in, out any) error {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		resp, err := cl.HTTP.Post(cl.BaseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var reg ctlplane.RegisterResponse
	if err := post("/v1/register", ctlplane.RegisterRequest{Server: 0, Name: "probe"}, &reg); err != nil {
		return
	}
	beat := ctlplane.HeartbeatRequest{Server: 0, Incarnation: reg.Incarnation}
	var ok bool
	us := timeProbe(nil, func() { ok = post("/v1/heartbeat", beat, &ctlplane.HeartbeatResponse{}) == nil })
	if ok {
		set("ctlplane.roundtrip_us", us)
	}
}
