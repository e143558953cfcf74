package runtime

import (
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/sched"
	"repro/internal/videosim"
)

// defaultConfigs is the mid-grid fallback configuration the degradation
// policy starts from when no prior decision exists.
func defaultConfigs(m int) []videosim.Config {
	cfgs := make([]videosim.Config, m)
	for i := range cfgs {
		cfgs[i] = videosim.Config{Resolution: 1000, FPS: 10}
	}
	return cfgs
}

// degrade is the graceful-degradation policy: starting from the base
// per-video configurations it searches for the least harmful workload that
// Algorithm 1 can still place on the healthy servers. Each step lowers one
// knob on the highest-compute-utilization live video — frame rate first
// (sampling sheds load linearly and relaxes Const2's gcd), then
// resolution — and retries the zero-jitter grouping. Only when every live
// video sits at the knob minimum does it drop whole videos, lowest
// truth-benefit contribution (accuracy weight × achievable accuracy)
// first. The returned decision uses the full physical server index space
// and records its victims in Shed/Downgraded; with zero healthy servers
// everything is shed. priorShed/priorDown carry an earlier degradation's
// victims forward, so re-degrading an already-degraded decision (a replan
// epoch mid-outage) keeps reporting the full set until a successful full
// replan resets it. It is deterministic: ties break on the lowest video
// index.
func (c *Controller) degrade(sys *objective.System, healthy []bool, base []videosim.Config, priorShed, priorDown []int) eva.Decision {
	m := sys.M()
	cfgs := append([]videosim.Config(nil), base...)
	shed := make([]bool, m)
	down := make([]bool, m)
	for _, i := range priorShed {
		if i >= 0 && i < m {
			shed[i] = true
		}
	}
	for _, i := range priorDown {
		if i >= 0 && i < m {
			down[i] = true
		}
	}

	nHealthy := sys.N()
	if healthy != nil {
		nHealthy = 0
		for _, ok := range healthy {
			if ok {
				nHealthy++
			}
		}
	}
	if nHealthy == 0 {
		for i := range shed {
			shed[i] = true
		}
		return eva.Decision{Configs: cfgs, ZeroJit: true, Shed: trueIndices(shed)}
	}

	try := func() (eva.Decision, bool) {
		raw := make([]sched.Stream, 0, m)
		for i, clip := range sys.Clips {
			if shed[i] {
				continue
			}
			raw = append(raw, eva.TrueStream(clip, i, cfgs[i]))
		}
		streams := sched.SplitHighRate(raw)
		plan, err := sched.ScheduleMasked(streams, sys.Servers, healthy)
		if err != nil {
			return eva.Decision{}, false
		}
		d := eva.ZeroJitterDecision(append([]videosim.Config(nil), cfgs...), streams, plan, sys.Servers)
		d.Shed, d.Downgraded = trueIndices(shed), trueIndices(down)
		return d, true
	}

	// Each iteration removes load, and a fully-shed workload is trivially
	// feasible, so the loop terminates; the cap is pure insurance.
	maxIter := (m + 1) * (len(videosim.FrameRates) + len(videosim.Resolutions) + 2)
	for iter := 0; iter < maxIter; iter++ {
		if d, ok := try(); ok {
			return d
		}
		// Downgrade the highest-utilization video that still has headroom.
		pick, best := -1, 0.0
		for i := range cfgs {
			if shed[i] || !lowerable(cfgs[i]) {
				continue
			}
			u := sys.Clips[i].ProcTime(cfgs[i].Resolution) * cfgs[i].FPS
			if pick == -1 || u > best {
				pick, best = i, u
			}
		}
		if pick >= 0 {
			cfgs[pick] = lowerOne(cfgs[pick])
			down[pick] = true
			continue
		}
		// Every live video is at the minimum: drop the one contributing the
		// least truth benefit.
		drop, worst := -1, 0.0
		for i := range cfgs {
			if shed[i] {
				continue
			}
			b := c.Truth.W[objective.Accuracy] * sys.Clips[i].Accuracy(cfgs[i])
			if drop == -1 || b < worst {
				drop, worst = i, b
			}
		}
		if drop < 0 {
			break
		}
		shed[drop] = true
		down[drop] = false // shed and downgraded are disjoint records
	}
	// Cap hit (should be unreachable): shed everything still live.
	for i := range shed {
		shed[i] = true
		down[i] = false
	}
	return eva.Decision{Configs: cfgs, ZeroJit: true, Shed: trueIndices(shed)}
}

// lowerable reports whether the configuration has a knob above its grid
// minimum.
func lowerable(c videosim.Config) bool {
	return c.FPS > videosim.FrameRates[0] || c.Resolution > videosim.Resolutions[0]
}

// lowerOne steps one knob down the grid: frame rate while possible, then
// resolution. Off-grid values snap to the next grid point below.
func lowerOne(c videosim.Config) videosim.Config {
	if c.FPS > videosim.FrameRates[0] {
		c.FPS = stepDown(videosim.FrameRates, c.FPS)
		return c
	}
	if c.Resolution > videosim.Resolutions[0] {
		c.Resolution = stepDown(videosim.Resolutions, c.Resolution)
	}
	return c
}

// stepDown returns the largest grid value strictly below x (grid sorted
// ascending); below-grid inputs return the grid minimum.
func stepDown(grid []float64, x float64) float64 {
	out := grid[0]
	for _, g := range grid {
		if g < x && g > out {
			out = g
		}
	}
	return out
}

func trueIndices(mask []bool) []int {
	var out []int
	for i, b := range mask {
		if b {
			out = append(out, i)
		}
	}
	return out
}
