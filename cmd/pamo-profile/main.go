// Command pamo-profile dumps the profiling surfaces of the simulated video
// clips (the data behind the paper's Figure 2) as CSV, optionally with
// measurement noise, for external plotting or model fitting.
//
// Usage:
//
//	pamo-profile -clips 2 -seed 2024 > surfaces.csv
//	pamo-profile -noisy -samples 5    # repeated noisy measurements
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/videosim"
)

func main() {
	clips := flag.Int("clips", 2, "number of clips to profile")
	seed := flag.Uint64("seed", 2024, "random seed")
	noisy := flag.Bool("noisy", false, "emit noisy profiler measurements instead of ground truth")
	samples := flag.Int("samples", 1, "measurements per configuration (with -noisy)")
	link := flag.Float64("link", 100e6, "link bandwidth for the latency column (bits/s)")
	events := flag.String("events", "", "write per-clip profiling telemetry as JSONL to this file")
	strict := flag.Bool("strict", false, "run the invariant checker in strict mode: a non-finite profiling measurement aborts with a non-zero exit")
	flag.Parse()

	var rec *obs.Recorder
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		rec = obs.NewRecorder(f)
		defer rec.Close()
	}
	measured := rec.Registry().Counter("profile_measurements_total")
	var chk *check.Checker
	if *strict || rec != nil {
		chk = check.New(*strict, rec)
	}
	audit := func(clip string, vals ...float64) {
		if err := chk.Finite("profile."+clip, vals...); err != nil {
			fmt.Fprintf(os.Stderr, "strict check: %v\n", err)
			os.Exit(1)
		}
	}

	w := os.Stdout
	fmt.Fprintln(w, "clip,resolution,fps,map,latency_s,bandwidth_bps,compute_tflops,power_w")
	prof := videosim.NewProfiler(0.02, stats.NewRNG(*seed+1))
	// One root span ties the per-clip spans into a single trace in the
	// JSONL (and any downstream Perfetto export of it).
	rctx, root := rec.StartSpanCtx(context.Background(), "profile",
		obs.F("clips", float64(*clips)))
	for _, clip := range videosim.StandardClips(*clips, *seed) {
		_, sp := rec.StartSpanCtx(rctx, "profile.clip", obs.F("noisy", obs.Bool(*noisy)))
		rows := 0
		for _, r := range videosim.Resolutions {
			for _, s := range videosim.FrameRates {
				cfg := videosim.Config{Resolution: r, FPS: s}
				if *noisy {
					for k := 0; k < *samples; k++ {
						m := prof.Measure(clip, cfg)
						lat := m.ProcTime + m.Bits / *link
						audit(clip.Name, m.Acc, lat, m.Bandwidth, m.Compute, m.Power)
						fmt.Fprintf(w, "%s,%g,%g,%.4f,%.5f,%.0f,%.3f,%.3f\n",
							clip.Name, r, s, m.Acc, lat, m.Bandwidth, m.Compute, m.Power)
						rows++
					}
				} else {
					lat := clip.ProcTime(r) + clip.BitsPerFrame(r) / *link
					audit(clip.Name, clip.Accuracy(cfg), lat, clip.Bandwidth(cfg), clip.Compute(cfg), clip.Power(cfg))
					fmt.Fprintf(w, "%s,%g,%g,%.4f,%.5f,%.0f,%.3f,%.3f\n",
						clip.Name, r, s, clip.Accuracy(cfg), lat, clip.Bandwidth(cfg), clip.Compute(cfg), clip.Power(cfg))
					rows++
				}
			}
		}
		measured.Add(uint64(rows))
		sp.Field("rows", float64(rows))
		sp.End()
	}
	root.End()
}
