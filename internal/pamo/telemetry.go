package pamo

import (
	"strconv"

	"repro/internal/obs"
)

// Metric names the scheduler registers (see DESIGN.md, "Observability").
// Every handle is nil — and therefore free — when the scheduler runs
// without a recorder.
type schedMetrics struct {
	profiles     *obs.Counter   // pamo_profiles_total
	iterations   *obs.Counter   // pamo_iterations_total
	observations *obs.Counter   // pamo_observations_total
	cholInc      *obs.Counter   // pamo_chol_incremental_total
	cholFull     *obs.Counter   // pamo_chol_refactorize_total
	euboQueries  *obs.Counter   // pamo_eubo_queries_total
	prefComps    *obs.Counter   // pamo_pref_comparisons_total
	gpObs        *obs.Counter   // gp_obs_total
	bestBenefit  *obs.Gauge     // pamo_best_benefit
	mvnFallbacks *obs.Gauge     // pamo_mvn_fallbacks
	acqScore     *obs.Histogram // pamo_acq_score
	iterSeconds  *obs.Histogram // pamo_iteration_seconds
}

func newSchedMetrics(reg *obs.Registry) schedMetrics {
	return schedMetrics{
		profiles:     reg.Counter("pamo_profiles_total"),
		iterations:   reg.Counter("pamo_iterations_total"),
		observations: reg.Counter("pamo_observations_total"),
		cholInc:      reg.Counter("pamo_chol_incremental_total"),
		cholFull:     reg.Counter("pamo_chol_refactorize_total"),
		euboQueries:  reg.Counter("pamo_eubo_queries_total"),
		prefComps:    reg.Counter("pamo_pref_comparisons_total"),
		gpObs:        reg.Counter("gp_obs_total"),
		bestBenefit:  reg.Gauge("pamo_best_benefit"),
		mvnFallbacks: reg.Gauge("pamo_mvn_fallbacks"),
		acqScore:     reg.Histogram("pamo_acq_score", obs.DefBuckets),
		iterSeconds:  reg.Histogram("pamo_iteration_seconds", obs.DefBuckets),
	}
}

// recordAcq reports one batch construction: the greedy slot scores (the
// per-iteration qNEI/qEI/... values) as an "acq" event plus histogram
// observations. The event is attributed to the innermost open span
// (normally the BO iteration) via s.evctx.
func (s *Scheduler) recordAcq(universe int, slotScores []float64) {
	for _, v := range slotScores {
		s.met.acqScore.Observe(v)
	}
	if s.rec == nil {
		return
	}
	fields := make([]obs.Field, 0, len(slotScores)+2)
	fields = append(fields,
		obs.F("universe", float64(universe)),
		obs.F("batch", float64(len(slotScores))))
	for k, v := range slotScores {
		fields = append(fields, obs.F("slot"+strconv.Itoa(k), v))
	}
	s.rec.EventCtx(s.evctx, "acq", fields...)
}
