package main

import (
	"fmt"

	"repro/internal/obs"
)

// layerDef names one per-layer metric. BENCHMARK.json lists the same names;
// bench_test.go keeps the two in step.
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

// perLayer is every per-layer metric, in layer order. A metric whose layer a
// workload does not exercise reads 0 there. Suffixes name the input size:
// n120/n12 are profile points per clip (plus two anchors), m512 and n64 the
// fleet's streams and servers, small the churn day's captured instance.
var perLayer = []layerDef{
	{"runtime.epoch_self_ms", "ms", "lower"},
	{"runtime.replan_ms", "ms", "lower"},
	{"runtime.decide_seam_ms", "ms", "lower"},
	{"runtime.replans", "count", "lower"},
	{"runtime.decide_attempts", "count", "lower"},
	{"runtime.degraded_epochs", "count", "lower"},
	{"runtime.churn_ops", "count", "lower"},
	{"runtime.churn_fast_share", "share", "higher"},
	{"runtime.attribution_gap_pct", "%", "lower"},

	{"pamo.profiling_ms", "ms", "lower"},
	{"pamo.outcome_model_ms", "ms", "lower"},
	{"pamo.preference_ms", "ms", "lower"},
	{"pamo.solution_ms", "ms", "lower"},
	{"pamo.profiles", "count", "lower"},
	{"pamo.iters", "count", "lower"},
	{"pamo.mvn_fallbacks", "count", "lower"},
	{"pamo.warm_start_share", "share", "higher"},
	{"pamo.draws_reused", "count", "higher"},

	{"gp.fit_us.n120", "us", "lower"},
	{"gp.fit_us.n12", "us", "lower"},
	{"gp.add_obs_us.n120", "us", "lower"},
	{"gp.predict_batch_us.n120", "us", "lower"},
	{"gp.sample_joint_us.n120", "us", "lower"},
	{"gp.sparse_fit_us.n120", "us", "lower"},
	{"gp.sparse_add_obs_us.n120", "us", "lower"},

	{"mat.chol_us.n120", "us", "lower"},
	{"mat.chol_extend_us.n120", "us", "lower"},
	{"mat.solve_vec_us.n120", "us", "lower"},

	{"kernel.gram_us.n120", "us", "lower"},

	{"prefgp.fit_us", "us", "lower"},
	{"prefgp.predict_us", "us", "lower"},

	{"acq.shared_build_us", "us", "lower"},
	{"acq.score_us", "us", "lower"},
	{"acq.eubo_select_us", "us", "lower"},

	{"eva.evaluate_us", "us", "lower"},

	{"sched.group_us.m512", "us", "lower"},
	{"sched.map_groups_us.m512", "us", "lower"},
	{"sched.schedule_us.m512", "us", "lower"},
	{"sched.schedule_us.small", "us", "lower"},
	{"sched.replan_warm_us.m512", "us", "lower"},
	{"sched.admit_us", "us", "lower"},
	{"sched.evict_us", "us", "lower"},
	{"sched.incremental_hit_share", "share", "higher"},

	{"hungarian.solve_us.n64", "us", "lower"},
	{"hungarian.solve_us.small", "us", "lower"},

	{"shard.plan_ms", "ms", "lower"},
	{"shard.partition_us", "us", "lower"},
	{"shard.rounds", "count", "lower"},
	{"shard.conflicts", "count", "lower"},
	{"shard.retries", "count", "lower"},
	{"shard.fallbacks", "count", "lower"},
	{"shard.commit_share", "share", "higher"},

	{"check.verify_decision_us.m512", "us", "lower"},
	{"check.verify_decision_us.small", "us", "lower"},

	{"cluster.des_us_per_server", "us", "lower"},
	{"cluster.des_ms_per_epoch", "ms", "lower"},
	{"cluster.zero_jitter_offsets_us", "us", "lower"},
	{"cluster.frames_per_epoch", "count", "higher"},

	{"ctlplane.dispatch_rtt_us", "us", "lower"},
	{"ctlplane.roundtrip_us", "us", "lower"},
	{"ctlplane.stream_op_us", "us", "lower"},
	{"ctlplane.polls", "count", "lower"},
	{"ctlplane.dispatches", "count", "lower"},
	{"ctlplane.results", "count", "higher"},
	{"ctlplane.stale_results", "count", "lower"},
	{"ctlplane.eval_timeouts", "count", "lower"},
	{"ctlplane.stream_ops", "count", "lower"},
	{"ctlplane.polls_per_dispatch", "ratio", "lower"},

	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.spans_per_epoch", "count", "lower"},
}

// harvest indexes what the program exported during the traced days.
type harvest struct {
	spans map[string]obs.SpanStat
	snap  obs.Snapshot
}

func newHarvest(rec *obs.Recorder) harvest {
	h := harvest{spans: map[string]obs.SpanStat{}, snap: rec.Registry().Snapshot()}
	for _, st := range rec.SpanSummary() {
		h.spans[st.Name] = st
	}
	return h
}

func (h harvest) totalMS(name string) float64 { return h.spans[name].Total * 1000 }
func (h harvest) meanMS(name string) float64  { return h.spans[name].Mean() * 1000 }
func (h harvest) counter(name string) float64 { return float64(h.snap.Counters[name]) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics that come from the traced days
// themselves: the program's own spans and counters (read-only), and the
// bench-side spans around the seam calls. Counts are per traced day.
func layerMetrics(w *workload, tr *tracer, on, off passTotals) map[string]metric {
	h := newHarvest(tr.rec)
	days := float64(on.days)
	epochs := float64(on.epochs)
	perDay := func(name string) float64 { return ratio(h.counter(name), days) }

	decideUS, decideN := tr.log.totalUS("decide")
	cellUS, cellN := tr.log.totalUS("decide_cell")
	evalUS, evalN := tr.log.totalUS("evaluate_server")
	opUS, _ := tr.log.totalUS("on_epoch")

	var spanCount float64
	for _, st := range h.spans {
		spanCount += float64(st.Count)
	}

	v := map[string]float64{
		// Self time down the span tree: an epoch's own time is its span less
		// the replan span nested in it, so it holds the evaluation fan-out
		// the runtime drives; the gap is what the bench timed between epoch
		// boundaries that no epoch span of the program covers.
		"runtime.epoch_self_ms":       ratio(h.totalMS("epoch")-h.totalMS("replan"), epochs),
		"runtime.replan_ms":           h.meanMS("replan"),
		"runtime.decide_seam_ms":      ratio((decideUS+cellUS)/1000, float64(decideN+cellN)),
		"runtime.replans":             perDay("runtime_replans_total"),
		"runtime.decide_attempts":     ratio(float64(h.spans["decide_attempt"].Count), days),
		"runtime.degraded_epochs":     perDay("runtime_degraded_epochs_total"),
		"runtime.churn_ops":           perDay("runtime_churn_ops_total"),
		"runtime.churn_fast_share":    ratio(h.counter("runtime_churn_fast_total"), h.counter("runtime_churn_fast_total")+h.counter("runtime_churn_resolve_total")),
		"runtime.attribution_gap_pct": 100 * (1 - ratio(h.totalMS("epoch"), on.epochMS)),

		"pamo.profiling_ms":     h.meanMS("profiling"),
		"pamo.outcome_model_ms": h.meanMS("outcome_model"),
		"pamo.preference_ms":    h.meanMS("preference"),
		"pamo.solution_ms":      h.meanMS("solution"),
		"pamo.profiles":         perDay("pamo_profiles_total"),
		"pamo.iters":            perDay("pamo_iterations_total"),
		"pamo.mvn_fallbacks":    h.snap.Gauges["pamo_mvn_fallbacks"],
		"pamo.warm_start_share": ratio(h.counter("pamo_warm_starts_total"), h.counter("pamo_warm_starts_total")+h.counter("pamo_cold_starts_total")),
		"pamo.draws_reused":     perDay("acq_draws_reused_total"),

		"sched.incremental_hit_share": ratio(h.counter("sched_incremental_total"), h.counter("sched_incremental_total")+h.counter("sched_incremental_declined_total")),

		"shard.plan_ms":      h.meanMS("shard_plan"),
		"shard.rounds":       ratio(float64(h.spans["shard_round"].Count), float64(h.spans["shard_plan"].Count)),
		"shard.conflicts":    perDay("shard_conflicts_total"),
		"shard.retries":      perDay("shard_retries_total"),
		"shard.fallbacks":    perDay("shard_fallbacks_total"),
		"shard.commit_share": ratio(h.counter("shard_commits_total"), h.counter("shard_commits_total")+h.counter("shard_conflicts_total")),

		"cluster.des_us_per_server": h.meanMS("des") * 1000,
		"cluster.des_ms_per_epoch":  ratio(h.totalMS("des"), epochs),

		"ctlplane.dispatch_rtt_us":    ratio(evalUS, float64(evalN)),
		"ctlplane.stream_op_us":       ratio(opUS, h.counter("ctlplane_stream_ops_total")),
		"ctlplane.polls":              perDay("ctlplane_polls_total"),
		"ctlplane.dispatches":         perDay("ctlplane_dispatches_total"),
		"ctlplane.results":            perDay("ctlplane_results_total"),
		"ctlplane.stale_results":      perDay("ctlplane_stale_results_total"),
		"ctlplane.eval_timeouts":      perDay("ctlplane_eval_timeouts_total"),
		"ctlplane.stream_ops":         perDay("ctlplane_stream_ops_total"),
		"ctlplane.polls_per_dispatch": ratio(h.counter("ctlplane_polls_total"), h.counter("ctlplane_dispatches_total")),

		"obs.trace_overhead_pct": 100 * (ratio(ratio(float64(off.epochs), off.wallS), ratio(epochs, on.wallS)) - 1),
		"obs.spans_per_epoch":    ratio(spanCount, epochs),
	}
	if tr.cap.frames > 0 {
		v["cluster.frames_per_epoch"] = ratio(float64(tr.cap.frames), epochs)
	}
	out := make(map[string]metric, len(v))
	for name, x := range v {
		out[name] = metric{Value: x}
	}
	return out
}

// layerTable is the per-layer table of the traced days: every span name the
// program emitted, with its share of the epoch time, plus the bench-side
// seam spans. Shares of nested or parallel spans overlap; README explains.
func layerTable(tr *tracer, on passTotals) []string {
	var out []string
	out = append(out, fmt.Sprintf("traced epoch time %.1f ms over %d epochs; spans (count, total ms, share of epoch time):", on.epochMS, on.epochs))
	for _, st := range tr.rec.SpanSummary() {
		out = append(out, fmt.Sprintf("  program %-16s %7d %10.1f %6.1f%%", st.Name, st.Count, st.Total*1000, 100*ratio(st.Total*1000, on.epochMS)))
	}
	for _, name := range []string{"drain", "decide", "decide_cell", "evaluate_server", "on_epoch"} {
		if us, n := tr.log.totalUS(name); n > 0 {
			out = append(out, fmt.Sprintf("  bench   %-16s %7d %10.1f %6.1f%%", name, n, us/1000, 100*ratio(us/1000, on.epochMS)))
		}
	}
	return out
}
