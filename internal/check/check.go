// Package check is the runtime correctness harness: exact-rational
// verification of the paper's feasibility constraints on every decision the
// system emits, numerical guards for the GP/BO stack, and an incumbent
// monotonicity guard for the optimization loop.
//
// The harness has one deliberate split between its two surfaces:
//
//   - Metrics/events are ALWAYS recorded (through a nil-safe obs.Recorder),
//     under the check_* naming convention, so production runs surface
//     violations without changing behaviour.
//   - Errors are returned only in Strict mode, turning any violation into a
//     hard failure — the mode CI and the -strict command flags run in.
//
// Tolerance policy (documented once, applied everywhere):
//
//   - Const1/Const2 (Eqs. 6/7) are exact: every float64 is a dyadic
//     rational, so Σpᵢ vs the period gcd and Σpᵢ·sᵢ vs 1 are summed in an
//     exact sched.ProcSum (num/2^shift, no GCD normalisation: machine words,
//     promoted to big.Int only when a sum leaves them) and compared by
//     integer cross-multiplication with NO epsilon. Anything over the bound,
//     however marginal, is a violation.
//   - Finiteness is exact: NaN or ±Inf anywhere is a violation.
//   - Positive semi-definiteness is decided by a jittered Cholesky
//     factorization (the same CholJitter ladder the GP itself uses), so a
//     posterior covariance that is merely semi-definite to rounding passes,
//     while a genuinely indefinite one fails.
//   - Incumbent monotonicity is strict only under a FIXED preference belief;
//     a learned belief may legitimately rescale past benefits on refresh, so
//     drops there are counted (check_incumbent_rescale_total) but never
//     errors.
//
// All methods are no-ops returning nil on a nil *Checker, so instrumented
// code keeps the calls unconditionally.
package check

import (
	"fmt"

	"repro/internal/obs"
)

// Violation is the error returned (in Strict mode) when an invariant fails.
type Violation struct {
	Invariant string // machine-readable invariant name, e.g. "const2"
	Detail    string // human-readable diagnosis
}

func (v *Violation) Error() string { return "check: " + v.Invariant + ": " + v.Detail }

// Checker verifies invariants, recording every check and violation on its
// recorder's metric registry. The zero value (and nil) are usable: a nil
// Checker checks nothing, a non-nil Checker with a nil recorder checks
// without telemetry.
type Checker struct {
	Strict bool
	rec    *obs.Recorder
}

// New returns a checker. strict turns violations into returned errors; rec
// (may be nil) receives check_* metrics and violation events.
func New(strict bool, rec *obs.Recorder) *Checker {
	return &Checker{Strict: strict, rec: rec}
}

// begin counts one invariant evaluation.
func (c *Checker) begin(invariant string) {
	if c == nil {
		return
	}
	c.rec.Registry().Counter("check_checks_total").Inc()
	c.rec.Registry().Counter("check_checks_" + invariant).Inc()
}

// violate records a violation and, in Strict mode, returns it as an error.
func (c *Checker) violate(invariant, format string, args ...any) error {
	if c == nil {
		return nil
	}
	reg := c.rec.Registry()
	reg.Counter("check_violations_total").Inc()
	reg.Counter("check_violation_" + invariant).Inc()
	strict := 0.0
	if c.Strict {
		strict = 1
	}
	c.rec.Event("check.violation."+invariant, obs.F("strict", strict))
	if c.Strict {
		return &Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	}
	return nil
}

// Relaxed returns a view of this checker that records metrics and events
// but never returns errors — for invariants whose violation is an expected
// operating condition (e.g. deployed-decision feasibility under TRUE
// processing times, where model error is the phenomenon being measured)
// rather than a bug. Safe on a nil receiver.
func (c *Checker) Relaxed() *Checker {
	if c == nil || !c.Strict {
		return c
	}
	return &Checker{Strict: false, rec: c.rec}
}

// Violations returns the total violation count recorded so far (0 when the
// checker or its recorder is nil).
func (c *Checker) Violations() uint64 {
	if c == nil {
		return 0
	}
	return c.rec.Registry().Counter("check_violations_total").Value()
}
