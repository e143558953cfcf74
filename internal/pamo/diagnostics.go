package pamo

import (
	"fmt"

	"repro/internal/stats"
)

// MetricDiag is the leave-one-out quality of one clip's metric GP.
type MetricDiag struct {
	Clip   string
	Metric string
	N      int     // training points
	R2     float64 // LOO coefficient of determination
	LogLik float64 // LOO predictive log likelihood (standardized targets)
}

var metricNames = [numMetrics]string{"accuracy", "proc_time", "frame_bits", "compute", "power"}

// SamplingFallbacks returns how many of THIS scheduler's joint-posterior
// sampling calls degraded to the deterministic mean because the covariance
// could not be factorized (gp.DrawMVN's fallback). A non-zero count means
// part of the acquisition search ran blind to model uncertainty — worth
// surfacing in any trace/bench report. The counter is injected into every
// outcome GP and the preference model this scheduler owns; gp keeps no
// process-wide count, so concurrently running schedulers never
// cross-attribute each other's fallbacks.
func (s *Scheduler) SamplingFallbacks() uint64 {
	return s.mvn.Load()
}

// Diagnostics reports the leave-one-out fit quality of every clip-metric
// outcome GP — the live-system counterpart of the paper's Figure 8 check.
// Call after Run (or at least after the profiling phase).
func (s *Scheduler) Diagnostics() ([]MetricDiag, error) {
	var out []MetricDiag
	for ci, cm := range s.clips {
		for mi := metric(0); mi < numMetrics; mi++ {
			d, ok := cm.looDiag(mi)
			if !ok {
				return nil, fmt.Errorf("pamo: diagnostics before profiling (clip %d)", ci)
			}
			d.Clip, d.Metric = s.sys.Clips[ci].Name, metricNames[mi]
			out = append(out, d)
		}
	}
	return out, nil
}

// looDiag computes metric mi's leave-one-out fit quality; ok=false before
// the model is conditioned.
func (c *clipModels) looDiag(mi metric) (d MetricDiag, ok bool) {
	if d.N = c.model.N(); d.N == 0 {
		return d, false
	}
	mu, _ := c.model.LeaveOneOut(int(mi))
	d.R2 = stats.R2(c.model.Y(int(mi)), mu)
	d.LogLik = c.model.LOOLogLikelihood(int(mi))
	return d, true
}
