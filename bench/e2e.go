package main

import (
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

const (
	// minReplans keeps the replan p95 supported under the minBeyond rule.
	minReplans = 200
	// benefitOffset is Σw of the uniform preference: benefit U lies in
	// [-5, 0], and the benchmark reports 5+U so the metric is positive.
	benefitOffset = 5
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func daySeed(seed uint64, i int) uint64 {
	return stats.SplitMix64(seed + uint64(i)*0x9E3779B97F4A7C15)
}

// laps is the outcome of the measured phase of one run.
type laps struct {
	w     *workload
	days  []dayResult  // in run order
	byDay []*dayResult // first run of each distinct day
	// dayPeaksMB holds one resident-set high-water mark per day.
	dayPeaksMB []float64
	problem    []string // correctness failures
}

func (l *laps) fail(format string, args ...any) {
	l.problem = append(l.problem, fmt.Sprintf(format, args...))
}

// add records a finished day and checks it against the earlier run of the
// same day: same seed, same binary, so the same fingerprint.
func (l *laps) add(slot int, r dayResult) {
	l.days = append(l.days, r)
	if r.Err != nil {
		// A failed day is counted through its failed epochs, not as an
		// incorrect output, unless it is the wire diverging from its replay.
		fmt.Fprintf(os.Stderr, "bench: %s day %d: %v\n", l.w.Name, slot, r.Err)
		if errors.Is(r.Err, errDiverged) {
			l.fail("%v", r.Err)
		}
	}
	if len(r.EpochMS)+r.Failed < r.Epochs {
		l.fail("%s day %d: %d epochs ran and %d failed of %d configured", l.w.Name, slot, len(r.EpochMS), r.Failed, r.Epochs)
	}
	first := l.byDay[slot]
	if first == nil {
		l.byDay[slot] = &r
		return
	}
	if first.Fingerprint != r.Fingerprint || first.MeanBenefit != r.MeanBenefit {
		l.fail("%s day %d is not reproducible: fingerprint %x then %x", l.w.Name, slot, first.Fingerprint, r.Fingerprint)
	}
}

// fingerprint combines the fingerprints of the distinct days, in day order.
func (l *laps) fingerprint() uint64 {
	var fp uint64
	for _, d := range l.byDay {
		if d != nil {
			fp = stats.SplitMix64(fp ^ d.Fingerprint)
		}
	}
	return fp
}

// plan sizes the measured phase of one run.
type plan struct {
	seconds    float64 // stop once about this much time has gone
	epochs     int     // per day
	minLaps    int     // but not before this many days have run
	minReplans int     // nor before this many replan epochs were timed
	// A set-up is timed setupRepeats times, each on another day.
	setupRepeats int
	// The traced pass runs at least tracedPairs untraced/traced pairs of days.
	tracedPairs int
}

// fullPlan runs every distinct day once and one of them twice, and enough
// replans for the tail percentile; smokePlan is the tiny scale the tests
// use.
func fullPlan(w *workload, seconds float64) plan {
	return plan{
		seconds: seconds, epochs: w.Epochs, minLaps: w.Days + 1, minReplans: minReplans,
		setupRepeats: 15, tracedPairs: 2,
	}
}

func smokePlan(w *workload) plan {
	return plan{epochs: min(w.Epochs/4, 50), minLaps: 2, setupRepeats: 1, tracedPairs: 1}
}

// measure runs days of w back to back as the plan says. pick chooses the
// day slot of lap i; tr(i) is the tracer of lap i (nil = untraced).
func measure(w *workload, seed uint64, p plan, pick func(i int) int, tr func(i int) *tracer) *laps {
	l := &laps{w: w, byDay: make([]*dayResult, w.Days)}
	start := time.Now()
	replans := 0
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= p.minLaps && replans >= p.minReplans {
			// Stop when the next lap would overshoot by more than it undershoots.
			if elapsed+0.5*elapsed/float64(i) >= p.seconds {
				break
			}
		}
		if elapsed > 4*p.seconds+60 {
			l.fail("%s: measured phase did not reach %d laps and %d replans in %.0f s", w.Name, p.minLaps, p.minReplans, elapsed)
			break
		}
		goruntime.GC()
		reset := resetHWM()
		slot := pick(i)
		// The run's first day is also replayed without the wire, where the
		// workload has one.
		r := runDay(w, daySeed(seed, slot), p.epochs, tr(i), i == 0)
		for _, rp := range r.Replan {
			if rp {
				replans++
			}
		}
		l.add(slot, r)
		if reset {
			l.dayPeaksMB = append(l.dayPeaksMB, vmHWM())
		}
	}
	return l
}

// endToEnd reduces the measured laps to the end-to-end metrics.
func endToEnd(l *laps, setups []float64) (result, []string) {
	w := l.w
	var all, replan []float64
	var wall float64
	var attempted, failed, missed, decisions, infeasible int
	var alloc uint64
	for _, d := range l.days {
		attempted += d.Epochs
		failed += d.Failed
		wall += d.WallS
		alloc += d.AllocBytes
		decisions += d.Decisions
		infeasible += d.Infeasible
		for k, ms := range d.EpochMS {
			all = append(all, ms)
			if d.Replan[k] {
				replan = append(replan, ms)
			}
			if ms > w.BudgetMS {
				missed++
			}
		}
		missed += d.Epochs - len(d.EpochMS) // epochs never reached miss every deadline
	}
	var benefit float64
	nDays := 0
	for _, d := range l.byDay {
		if d != nil {
			benefit += d.MeanBenefit
			nDays++
		}
	}
	if nDays > 0 {
		benefit /= float64(nDays)
	}

	p50, _ := percentile(all, 50)
	p95, ok95 := percentile(all, 95)
	r50, _ := percentile(replan, 50)
	r95, rok95 := percentile(replan, 95)
	feasible := 1.0
	if decisions > 0 {
		feasible = 1 - float64(infeasible)/float64(decisions)
	}
	reached := len(all)
	m := map[string]metric{
		"epochs_per_s":       {float64(reached) / wall, "1/s"},
		"epoch_p50_ms":       {p50, "ms"},
		"epoch_p95_ms":       {p95, "ms"},
		"replan_p50_ms":      {r50, "ms"},
		"replan_p95_ms":      {r95, "ms"},
		"deadline_met_share": {1 - float64(missed)/float64(attempted), "share"},
		"completed_share":    {1 - float64(failed)/float64(attempted), "share"},
		"feasible_share":     {feasible, "share"},
		"mean_benefit":       {benefitOffset + benefit, "benefit"},
		"alloc_kb_per_epoch": {float64(alloc) / 1024 / float64(max(reached, 1)), "KB"},
		"peak_rss_mb":        {l.peakRSSMB(), "MB"},
		"setup_s":            {median(setups), "s"},
	}
	notes := []string{
		fmt.Sprintf("%d laps, %d epochs (%d replans), %d set-ups", len(l.days), reached, len(replan), len(setups)),
	}
	for _, tail := range []struct {
		name string
		ok   bool
		n    int
	}{{"epoch_p95_ms", ok95, len(all)}, {"replan_p95_ms", rok95, len(replan)}} {
		if !tail.ok {
			notes = append(notes, fmt.Sprintf("%s has fewer than %d samples beyond it (n=%d supports p%g)", tail.name, minBeyond, tail.n, highestSupported(tail.n)))
		}
	}
	return result{Correct: len(l.problem) == 0, Attempted: attempted, Failed: failed, Metrics: m}, notes
}

// coldStarts times the workload's set-up several times over, each on a day
// of its own: building the system, the scripts and the fleet, registering
// agents, and epoch 0 of the fresh loop, which installs the initial decision
// the controller cannot run without. The run reports the median. The
// repetitions double as the untimed warm-up of the measured phase.
func coldStarts(w *workload, seed uint64, p plan) ([]float64, error) {
	samples := make([]float64, 0, p.setupRepeats)
	for i := 0; i < p.setupRepeats; i++ {
		goruntime.GC()
		t0 := time.Now()
		r := runDay(w, daySeed(seed, w.Days+i), 1, nil, false)
		if r.Err != nil {
			return nil, fmt.Errorf("set-up: %w", r.Err)
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return samples, nil
}

// peakRSSMB is the median over the days of each day's resident-set
// high-water mark, where the kernel lets the process reset the mark between
// days, and the whole run's high-water mark where it does not.
func (l *laps) peakRSSMB() float64 {
	if len(l.dayPeaksMB) > 0 {
		return median(l.dayPeaksMB)
	}
	return vmHWM()
}

// resetHWM asks the kernel to reset the high-water mark to the current
// resident set (clear_refs code 5) and reports whether it did.
func resetHWM() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// vmHWM reads this process's resident-set high-water mark in MB.
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
