package check

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/sched"
)

// VerifyAssignmentServers checks the paper's two feasibility constraints
// exactly on a stream→server assignment, scaled by each server's speed class
// (1 for a zero SpeedFactor): Const1 (Eq. 6, Σ pᵢ·sᵢ ≤ speed_j per server)
// and Const2 (Eq. 7, Σ pᵢ ≤ gcd of periods · speed_j per server).
// Out-of-range assignments and non-finite processing times are violations
// too — the underlying sched checks fold them into their verdicts, so they
// are split out here first for a usable diagnosis.
func (c *Checker) VerifyAssignmentServers(streams []sched.Stream, assign []int, servers []cluster.Server) error {
	if c == nil {
		return nil
	}
	nServers := len(servers)
	c.begin("feasibility")
	if len(streams) != len(assign) {
		return c.violate("shape", "%d streams vs %d assignments", len(streams), len(assign))
	}
	for i, s := range streams {
		if math.IsNaN(s.Proc) || math.IsInf(s.Proc, 0) {
			return c.violate("finite", "stream %d (video %d.%d) has non-finite proc %v", i, s.Video, s.Sub, s.Proc)
		}
		if j := assign[i]; j < 0 || j >= nServers {
			return c.violate("assign_range", "stream %d (video %d.%d) assigned to server %d of %d", i, s.Video, s.Sub, j, nServers)
		}
	}
	if !sched.CheckConst1Servers(streams, assign, servers) {
		return c.violate("const1", "Eq. 6 violated: some server has exact utilization Σ pᵢ·sᵢ above its speed")
	}
	if !sched.CheckConst2Servers(streams, assign, servers) {
		return c.violate("const2", "Eq. 7 violated: some server has exact Σ pᵢ above its speed-scaled period gcd")
	}
	return nil
}

// VerifyPlanServers checks a scheduling plan — serial or concatenated from
// several shard cells' plans — for structural consistency and the exact
// feasibility constraints. Structure: Groups and GroupServer agree in
// shape, every stream sits in exactly one group, StreamServer mirrors the
// grouping, and no stream lands on an unhealthy server (healthy may be nil
// = all up). Feasibility: the exact speed-scaled Const1/Const2 checks of
// VerifyAssignmentServers over the per-server stream sets of the whole
// plan.
func (c *Checker) VerifyPlanServers(streams []sched.Stream, plan sched.Plan, servers []cluster.Server, healthy []bool) error {
	if c == nil {
		return nil
	}
	nServers := len(servers)
	c.begin("plan")
	if len(plan.Groups) != len(plan.GroupServer) {
		return c.violate("shape", "%d groups vs %d group servers", len(plan.Groups), len(plan.GroupServer))
	}
	if len(plan.StreamServer) != len(streams) {
		return c.violate("shape", "%d stream servers for %d streams", len(plan.StreamServer), len(streams))
	}
	seen := make([]bool, len(streams))
	for g, members := range plan.Groups {
		j := plan.GroupServer[g]
		if j < 0 || j >= nServers {
			return c.violate("assign_range", "group %d mapped to server %d of %d", g, j, nServers)
		}
		if healthy != nil && !healthy[j] {
			return c.violate("mask", "group %d mapped to unhealthy server %d", g, j)
		}
		for _, i := range members {
			if i < 0 || i >= len(streams) {
				return c.violate("shape", "group %d contains stream index %d of %d", g, i, len(streams))
			}
			if seen[i] {
				return c.violate("shape", "stream %d appears in more than one group", i)
			}
			seen[i] = true
			if plan.StreamServer[i] != j {
				return c.violate("shape", "stream %d: group %d says server %d but StreamServer says %d",
					i, g, j, plan.StreamServer[i])
			}
		}
	}
	for i := range streams {
		if !seen[i] {
			return c.violate("shape", "stream %d is in no group", i)
		}
	}
	return c.VerifyAssignmentServers(streams, plan.StreamServer, servers)
}

// VerifyDecisionServers checks a complete scheduling decision: structural
// consistency (offsets, shed list) plus the exact feasibility constraints
// of VerifyAssignmentServers. Degraded decisions (shed/downgraded videos) go
// through the same checks — a degraded replan that violates Const2 is
// exactly the failure mode the harness exists to catch.
func (c *Checker) VerifyDecisionServers(d eva.Decision, servers []cluster.Server) error {
	if c == nil {
		return nil
	}
	c.begin("decision")
	if d.Offsets != nil {
		if len(d.Offsets) != len(d.Streams) {
			return c.violate("shape", "%d offsets for %d streams", len(d.Offsets), len(d.Streams))
		}
		for i, off := range d.Offsets {
			if math.IsNaN(off) || math.IsInf(off, 0) || off < 0 {
				return c.violate("offset", "stream %d has invalid capture offset %v", i, off)
			}
		}
	}
	shed := d.ShedSet(len(d.Configs))
	for i, s := range d.Streams {
		if shed != nil && s.Video >= 0 && s.Video < len(shed) && shed[s.Video] {
			return c.violate("shed", "stream %d belongs to shed video %d but is still scheduled", i, s.Video)
		}
	}
	return c.VerifyAssignmentServers(d.Streams, d.Assign, servers)
}

// ObserveJitter records the simulated worst-case jitter of an installed
// decision. When the decision claims the Theorem 1 zero-jitter property
// (claimedZero), any jitter above the simulator's resolution is a
// violation; otherwise the value is metric-only.
func (c *Checker) ObserveJitter(jitter float64, claimedZero bool) error {
	if c == nil {
		return nil
	}
	c.begin("jitter")
	reg := c.rec.Registry()
	reg.Gauge("check_last_jitter_s").Set(jitter)
	reg.Histogram("check_jitter_s", obs.DefBuckets).Observe(jitter)
	if claimedZero && jitter > cluster.JitterEps {
		return c.violate("zero_jitter", "decision claims Theorem 1 offsets but simulates with jitter %.3g s", jitter)
	}
	return nil
}

// Finite checks that every value is finite (no NaN, no ±Inf). name labels
// the quantity in metrics and diagnostics, e.g. "posterior_mean".
func (c *Checker) Finite(name string, xs ...float64) error {
	if c == nil {
		return nil
	}
	c.begin("finite")
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return c.violate("finite", "%s[%d] = %v", name, i, x)
		}
	}
	return nil
}

// PSDCov checks that a posterior covariance matrix is symmetric, finite,
// and positive semi-definite up to the same jittered-Cholesky ladder the GP
// itself relies on: a matrix CholJitter can factor passes, one it cannot is
// genuinely indefinite.
func (c *Checker) PSDCov(name string, cov *mat.Matrix) error {
	if c == nil {
		return nil
	}
	c.begin("psd")
	if cov == nil || cov.Rows != cov.Cols {
		return c.violate("psd", "%s: not a square matrix", name)
	}
	for i := 0; i < cov.Rows; i++ {
		for j := i; j < cov.Cols; j++ {
			v := cov.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return c.violate("finite", "%s[%d,%d] = %v", name, i, j, v)
			}
			if cov.At(j, i) != v {
				return c.violate("psd", "%s: asymmetric at (%d,%d): %v vs %v", name, i, j, v, cov.At(j, i))
			}
		}
	}
	if _, err := mat.CholJitter(cov.Clone()); err != nil {
		return c.violate("psd", "%s: not positive semi-definite: %v", name, err)
	}
	return nil
}

// IncumbentGuard watches the best-so-far benefit of a BO loop. Under a
// fixed preference belief the incumbent must be non-decreasing; under a
// learned belief, refreshing the preference model legitimately rescales
// past benefits, so drops reset the baseline and are counted but never
// errors.
type IncumbentGuard struct {
	c     *Checker
	fixed bool
	best  float64
	has   bool
}

// NewIncumbent returns a guard. fixedBelief reports whether the benefit
// scale is constant across iterations (true preference weights).
func (c *Checker) NewIncumbent(fixedBelief bool) *IncumbentGuard {
	if c == nil {
		return nil
	}
	return &IncumbentGuard{c: c, fixed: fixedBelief}
}

// Observe feeds one iteration's incumbent benefit through the guard.
func (g *IncumbentGuard) Observe(benefit float64) error {
	if g == nil {
		return nil
	}
	g.c.begin("incumbent")
	if math.IsNaN(benefit) || math.IsInf(benefit, 0) {
		return g.c.violate("finite", "incumbent benefit = %v", benefit)
	}
	defer func() {
		if !g.has || benefit > g.best {
			g.best, g.has = benefit, true
		}
	}()
	if g.has && benefit < g.best {
		if g.fixed {
			return g.c.violate("incumbent_monotone",
				"incumbent benefit fell from %.12g to %.12g under a fixed preference belief", g.best, benefit)
		}
		// Learned belief: a preference refresh moved the benefit scale.
		// Follow the new scale instead of flagging every later iteration.
		g.c.rec.Registry().Counter("check_incumbent_rescale_total").Inc()
		g.best = benefit
	}
	return nil
}
