package baselines

import (
	"context"
	"math"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// FACTOptions tunes the FACT baseline.
type FACTOptions struct {
	WLat    float64 // weight of latency
	WAcc    float64 // weight of (1 − accuracy)
	MaxIter int     // BCD sweeps (default 20)
	FPS     float64 // fixed frame rate (FACT does not adapt it; default max)
	Seed    uint64
}

func (o FACTOptions) withDefaults() FACTOptions {
	if o.WLat == 0 {
		o.WLat = 1
	}
	if o.WAcc == 0 {
		o.WAcc = 1
	}
	if o.MaxIter == 0 {
		o.MaxIter = 20
	}
	if o.FPS == 0 {
		// FACT does not adapt the frame rate; a mid-grid default mirrors an
		// application-chosen rate (its AR use case runs well below camera max).
		o.FPS = 15
	}
	return o
}

// FACT runs the block-coordinate-descent baseline: it alternates
// (a) per-stream resolution selection minimizing w_lat·latency + w_acc·(1−acc)
// with a queueing-aware latency estimate, and (b) greedy re-assignment of
// each stream to the server minimizing its estimated latency, until a sweep
// changes nothing. Frame rate stays fixed (FACT ignores bandwidth and
// energy), and offsets are uncoordinated. ctx is checked between BCD
// sweeps.
func FACT(ctx context.Context, sys *objective.System, opt FACTOptions) (eva.Decision, error) {
	opt = opt.withDefaults()
	rng := stats.NewRNG(opt.Seed + 0xFAC7)
	m := sys.M()

	// State: per-video resolution index and per-video server.
	resIdx := make([]int, m)
	assign := make([]int, m)
	for i := range resIdx {
		resIdx[i] = len(videosim.Resolutions) / 2
		assign[i] = i % sys.N()
	}
	cfg := func(i int) videosim.Config {
		return videosim.Config{Resolution: videosim.Resolutions[resIdx[i]], FPS: opt.FPS}
	}
	// serverLoad returns Σ s·p utilization on server j, excluding video skip.
	serverLoad := func(j, skip int) float64 {
		var u float64
		for i := 0; i < m; i++ {
			if i == skip || assign[i] != j {
				continue
			}
			u += sys.Clips[i].ProcTime(cfg(i).Resolution) * cfg(i).FPS
		}
		return u
	}
	// latEst is FACT's internal latency model: processing + transmission,
	// inflated by the server's utilization (an M/D/1-style congestion
	// factor capped at 10×).
	latEst := func(i, j int, c videosim.Config) float64 {
		clip := sys.Clips[i]
		proc := clip.ProcTime(c.Resolution)
		tx := clip.BitsPerFrame(c.Resolution) / sys.Servers[j].Uplink
		u := serverLoad(j, i) + proc*c.FPS
		if u >= 1 {
			// Overload means unbounded queueing; FACT's model forbids it.
			return 1e3 * u
		}
		inflate := 1.0
		if u > 0.7 {
			inflate = math.Min(10, 1/(1-u))
		}
		return (proc + tx) * inflate
	}
	cost := func(i, j int, c videosim.Config) float64 {
		return opt.WLat*latEst(i, j, c) + opt.WAcc*(1-sys.Clips[i].Accuracy(c))
	}

	for iter := 0; iter < opt.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return eva.Decision{}, err
		}
		changed := false
		// Block 1: resolutions.
		for i := 0; i < m; i++ {
			best, bestC := resIdx[i], math.Inf(1)
			for ri := range videosim.Resolutions {
				c := videosim.Config{Resolution: videosim.Resolutions[ri], FPS: opt.FPS}
				if v := cost(i, assign[i], c); v < bestC {
					best, bestC = ri, v
				}
			}
			if best != resIdx[i] {
				resIdx[i] = best
				changed = true
			}
		}
		// Block 2: assignment.
		for i := 0; i < m; i++ {
			best, bestC := assign[i], math.Inf(1)
			for j := 0; j < sys.N(); j++ {
				if v := cost(i, j, cfg(i)); v < bestC {
					best, bestC = j, v
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	cfgs := make([]videosim.Config, m)
	for i := range cfgs {
		cfgs[i] = cfg(i)
	}
	streams := eva.BuildStreams(sys, cfgs)
	// Sub-streams inherit their video's server (FACT is unaware of
	// splitting; an overloaded stream simply queues).
	sAssign := make([]int, len(streams))
	for k, st := range streams {
		sAssign[k] = assign[st.Video]
	}
	return eva.Decision{
		Configs: cfgs,
		Streams: streams,
		Assign:  sAssign,
		Offsets: eva.RandomOffsets(streams, rng),
	}, nil
}
