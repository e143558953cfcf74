// Online control-loop demo: a controller re-plans the cluster as video
// content drifts, evaluating each epoch's servers on a pool of workers.
// Compares periodic re-planning against a plan-once controller.
//
//	go run ./examples/online
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/videosim"
)

func main() {
	sys := repro.NewSystem(6, 4, 123)
	truth := repro.UniformPreference()

	// A cheap reactive scheduler: pick per-clip configurations by a greedy
	// score on the *drifted* clip curves, then Algorithm 1; the plan is
	// deployed with Theorem 1's offsets by eva.ZeroJitterDecision.
	reactive := runtime.SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
		cfgs := make([]videosim.Config, s.M())
		for i, clip := range s.Clips {
			best, bestV := videosim.Config{Resolution: 500, FPS: 5}, -1e18
			for _, r := range videosim.Resolutions {
				for _, fps := range videosim.FrameRates {
					cfg := videosim.Config{Resolution: r, FPS: fps}
					v := clip.Accuracy(cfg) - 0.01*clip.Power(cfg) - 0.02*clip.Bandwidth(cfg)/1e6
					if v > bestV && clip.ProcTime(r)*fps <= 0.6 {
						best, bestV = cfg, v
					}
				}
			}
			cfgs[i] = best
		}
		streams := eva.BuildStreams(s, cfgs)
		plan, err := sched.Schedule(streams, s.Servers)
		if err != nil {
			return eva.Decision{}, err
		}
		return eva.ZeroJitterDecision(cfgs, streams, plan, s.Servers), nil
	})

	run := func(replanEvery int) *runtime.Trace {
		c := &runtime.Controller{
			Sys:   sys,
			Sched: reactive,
			Truth: truth,
			Norm:  repro.NewNormalizer(sys),
			Opt:   runtime.Options{ReplanEvery: replanEvery},
		}
		tr, err := c.Run(context.Background(), 20)
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}

	adaptive := run(3)    // re-plan every 3 epochs
	planOnce := run(1000) // plan once, never adapt

	fmt.Println("epoch  adaptive_benefit  plan_once_benefit  adaptive_replanned")
	for i := range adaptive.Reports {
		fmt.Printf("%5d  %16.4f  %17.4f  %v\n",
			i, adaptive.Reports[i].Benefit, planOnce.Reports[i].Benefit,
			adaptive.Reports[i].Replanned)
	}
	fmt.Printf("\nmean benefit: adaptive %.4f vs plan-once %.4f\n",
		adaptive.MeanBenefit(), planOnce.MeanBenefit())
}
