// Package baselines reimplements the two comparison schedulers of the
// paper's evaluation at the algorithmic level: JCAB (Zhang et al., ToN
// 2021 — Lyapunov drift-plus-penalty configuration adaptation with
// First-Fit placement) and FACT (Liu et al., INFOCOM 2018 — block
// coordinate descent over resolution and server allocation). Both are
// single-objective optimizers with linearly weighted metrics and neither
// controls delay jitter, which is exactly the gap PaMO exploits.
package baselines

import (
	"context"
	"errors"
	"math"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// JCABOptions tunes the JCAB baseline.
type JCABOptions struct {
	WAcc   float64 // weight of accuracy in the drift-plus-penalty objective
	WEng   float64 // weight of energy
	V      float64 // Lyapunov trade-off parameter (default 50)
	Rounds int     // virtual-queue iterations (default 25)
	Budget float64 // energy budget in W (default: half the max-config power)
	Seed   uint64
}

func (o JCABOptions) withDefaults(sys *objective.System) JCABOptions {
	if o.WAcc == 0 {
		o.WAcc = 1
	}
	if o.WEng == 0 {
		o.WEng = 1
	}
	if o.V == 0 {
		o.V = 50
	}
	if o.Rounds == 0 {
		o.Rounds = 25
	}
	if o.Budget == 0 {
		maxCfg := videosim.Config{
			Resolution: videosim.Resolutions[len(videosim.Resolutions)-1],
			FPS:        videosim.FrameRates[len(videosim.FrameRates)-1],
		}
		var p float64
		for _, c := range sys.Clips {
			p += c.Power(maxCfg)
		}
		o.Budget = p / 2
	}
	return o
}

// ErrNoPlacement is returned when First-Fit cannot place the streams even
// at the minimum configuration.
var ErrNoPlacement = errors.New("baselines: first-fit placement failed at minimum configuration")

// JCAB runs the Lyapunov-style baseline: each round, every stream picks
// the configuration maximizing V·w_acc·acc − Q·w_eng·power; the virtual
// energy queue Q accumulates budget overruns. Placement is First-Fit under
// the utilization constraint only (Const1), with per-stream config
// downgrade on placement failure. Camera offsets are uncoordinated
// (random), so delay jitter is whatever it happens to be. ctx is checked
// between rounds and placement attempts.
func JCAB(ctx context.Context, sys *objective.System, opt JCABOptions) (eva.Decision, error) {
	opt = opt.withDefaults(sys)
	rng := stats.NewRNG(opt.Seed + 0x1CAB)
	grid := eva.ConfigGrid()

	// Drift-plus-penalty configuration adaptation. The virtual queue makes
	// per-round choices oscillate around the budget (bang-bang); Lyapunov
	// guarantees concern the *time average*, so the static decision takes
	// each video's modal configuration over the rounds.
	q := 0.0
	counts := make([]map[videosim.Config]int, sys.M())
	for i := range counts {
		counts[i] = map[videosim.Config]int{}
	}
	for r := 0; r < opt.Rounds; r++ {
		if err := ctx.Err(); err != nil {
			return eva.Decision{}, err
		}
		var totalPower float64
		for i, clip := range sys.Clips {
			best, bestV := grid[0], math.Inf(-1)
			for _, cfg := range grid {
				v := opt.V*opt.WAcc*clip.Accuracy(cfg) - q*opt.WEng*clip.Power(cfg)
				if v > bestV {
					best, bestV = cfg, v
				}
			}
			counts[i][best]++
			totalPower += clip.Power(best)
		}
		q = math.Max(0, q+totalPower-opt.Budget)
	}
	cfgs := make([]videosim.Config, sys.M())
	for i := range cfgs {
		bestN := -1
		for cfg, n := range counts[i] {
			if n > bestN || (n == bestN && less(cfg, cfgs[i])) {
				cfgs[i], bestN = cfg, n
			}
		}
	}

	// First-Fit placement with downgrade-on-failure. The attempt budget
	// covers walking every video from the max to the min configuration.
	maxAttempts := 1 + sys.M()*(len(videosim.Resolutions)+len(videosim.FrameRates))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return eva.Decision{}, err
		}
		streams := eva.BuildStreams(sys, cfgs)
		assign, failed := firstFit(streams, sys.N())
		if failed < 0 {
			return eva.Decision{
				Configs: cfgs,
				Streams: streams,
				Assign:  assign,
				Offsets: eva.RandomOffsets(streams, rng),
			}, nil
		}
		// Downgrade the failing video; when it is already at the minimum,
		// downgrade the heaviest remaining video instead (first-fit never
		// revisits early placements, so capacity hogs must be squeezed).
		video := streams[failed].Video
		if !downgrade(&cfgs[video]) {
			heaviest, load := -1, 0.0
			for i, clip := range sys.Clips {
				u := clip.ProcTime(cfgs[i].Resolution) * cfgs[i].FPS
				if u > load && downgradable(cfgs[i]) {
					heaviest, load = i, u
				}
			}
			if heaviest < 0 {
				return eva.Decision{}, ErrNoPlacement
			}
			downgrade(&cfgs[heaviest])
		}
	}
	return eva.Decision{}, ErrNoPlacement
}

// FirstFit places each stream on the first server whose utilization stays
// ≤ 1 (Const1 only — no jitter control). It returns the assignment and -1,
// or the index of the first stream that fits nowhere. Exported for the
// zero-jitter ablation study.
func FirstFit(streams []sched.Stream, n int) ([]int, int) {
	return firstFit(streams, n)
}

// firstFit places each stream on the first server whose utilization stays
// ≤ 1. It returns the assignment and -1, or the index of the first stream
// that fits nowhere.
func firstFit(streams []sched.Stream, n int) ([]int, int) {
	load := make([]float64, n)
	assign := make([]int, len(streams))
	for i, s := range streams {
		u := s.Proc / s.Period.Float()
		placed := false
		for j := 0; j < n; j++ {
			if load[j]+u <= 1+1e-12 {
				load[j] += u
				assign[i] = j
				placed = true
				break
			}
		}
		if !placed {
			return nil, i
		}
	}
	return assign, -1
}

// downgradable reports whether c has any knob above its minimum.
func downgradable(c videosim.Config) bool {
	return indexOf(videosim.FrameRates, c.FPS) > 0 || indexOf(videosim.Resolutions, c.Resolution) > 0
}

// downgrade lowers a configuration one knob step (fps first, then
// resolution); it reports false when already at the minimum.
func downgrade(c *videosim.Config) bool {
	if i := indexOf(videosim.FrameRates, c.FPS); i > 0 {
		c.FPS = videosim.FrameRates[i-1]
		return true
	}
	if i := indexOf(videosim.Resolutions, c.Resolution); i > 0 {
		c.Resolution = videosim.Resolutions[i-1]
		return true
	}
	return false
}

func indexOf(grid []float64, v float64) int {
	for i, g := range grid {
		if g == v {
			return i
		}
	}
	return 0
}

// less orders configs deterministically so modal ties don't depend on map
// iteration order.
func less(a, b videosim.Config) bool {
	if a.Resolution != b.Resolution {
		return a.Resolution < b.Resolution
	}
	return a.FPS < b.FPS
}
