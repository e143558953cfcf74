package exp

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// Fig2 reproduces the profiling surfaces of Figure 2: the five outcome
// metrics of two MOT16-like clips across the (resolution, fps) grid at a
// 100 Mbps link — the ground truth ("actual measured data") side by side
// with a GP fit trained on noisy profiling runs ("the fitted surface").
func Fig2(w io.Writer, seed uint64) []Table {
	clips := videosim.StandardClips(2, seed)
	const linkBps = 100e6
	var tables []Table
	for ci, clip := range clips {
		rng := stats.NewRNG(seed + uint64(ci) + 1)
		prof := videosim.NewProfiler(0.02, rng)
		gps := newTrainedClipGPs(clip, prof, 300, rng)
		t := Table{
			Title: "Figure 2 — outcome surfaces for " + clip.Name,
			Header: []string{"resolution", "fps", "mAP", "fit_mAP",
				"e2e_latency_s", "bandwidth_Mbps", "fit_Mbps", "compute_TFLOPS", "power_W"},
		}
		for _, r := range videosim.Resolutions {
			for _, s := range videosim.FrameRates {
				cfg := videosim.Config{Resolution: r, FPS: s}
				lat := clip.ProcTime(r) + clip.BitsPerFrame(r)/linkBps
				fit := gps.predict(cfg)
				t.Add(r, s, clip.Accuracy(cfg), fit[1], lat,
					clip.Bandwidth(cfg)/1e6, fit[2]/1e6, clip.Compute(cfg), clip.Power(cfg))
			}
		}
		t.Notes = append(t.Notes,
			"latency is per-frame (uncontended); it is independent of fps as in the paper's second panel",
			"fit_* columns are GP surfaces trained on 300 noisy profiling runs (the paper's fitted surfaces)")
		tables = append(tables, t)
	}
	for i := range tables {
		tables[i].Fprint(w)
	}
	return tables
}

// Fig3 reproduces Figure 3(a): latency accumulation when two streams
// contend on one server. Video 1 runs at 5 fps and Video 2 at 10 fps with
// per-frame times that exceed the server's capacity, so each successive
// frame of Video 2 waits longer.
func Fig3(w io.Writer) Table {
	streams := []cluster.StreamSpec{
		{Name: "video1(5fps)", Period: 0.2, Proc: 0.1},
		{Name: "video2(10fps)", Period: 0.1, Proc: 0.08},
	}
	res := cluster.SimulateServer(streams, cluster.Server{Uplink: 0}, 2.0)
	t := Table{
		Title:  "Figure 3(a) — latency accumulation under resource contention",
		Header: []string{"frame", "stream", "capture_s", "start_s", "finish_s", "latency_s", "wait_s"},
	}
	for i, f := range res.Frames {
		name := streams[f.Stream].Name
		t.Add(i, name, f.Capture, f.Start, f.Finish, f.Latency(), f.Wait())
	}
	t.Notes = append(t.Notes,
		"Σ p·s = 0.5 + 0.8 = 1.3 > 1: per-frame waits grow without bound, as in the paper's Figure 3(a)")
	t.Fprint(w)
	return t
}

// Fig4 reproduces Figure 4: pairing streams with mismatched periods causes
// delay jitter even at feasible utilization (videos 1+3), while the
// harmonic pairing (videos 1+2) is jitter-free under Theorem 1 offsets.
func Fig4(w io.Writer) Table {
	v1 := cluster.StreamSpec{Name: "video1", Period: 0.2, Proc: 0.08}
	v2 := cluster.StreamSpec{Name: "video2", Period: 0.4, Proc: 0.10}
	v3 := cluster.StreamSpec{Name: "video3", Period: 0.3, Proc: 0.10}
	srv := cluster.Server{Uplink: 0}

	t := Table{
		Title:  "Figure 4 — delay jitter from poor grouping",
		Header: []string{"grouping", "gcd_of_periods_s", "sum_proc_s", "const2_ok", "max_jitter_s", "max_wait_s"},
	}
	add := func(label string, a, b cluster.StreamSpec, gcd float64) {
		sum := a.Proc + b.Proc
		specs := cluster.ZeroJitterOffsetsOn([]cluster.StreamSpec{a, b}, srv)
		res := cluster.SimulateServer(specs, srv, 60)
		t.Add(label, gcd, sum, sum <= gcd, res.MaxJitter, res.MaxWait)
	}
	add("video1+video2 (harmonic)", v1, v2, 0.2)
	add("video1+video3 (mismatched)", v1, v3, 0.1)
	t.Notes = append(t.Notes,
		"Const2 (Σp ≤ gcd of periods) separates the jitter-free pairing from the jittering one")
	t.Fprint(w)
	return t
}

// Fig3Timeline returns the per-frame latency series of the contended
// stream, used by tests to assert monotone accumulation.
func Fig3Timeline() []float64 {
	streams := []cluster.StreamSpec{
		{Period: 0.2, Proc: 0.1},
		{Period: 0.1, Proc: 0.08},
	}
	res := cluster.SimulateServer(streams, cluster.Server{Uplink: 0}, 3.0)
	var lat []float64
	for _, f := range res.Frames {
		if f.Stream == 1 {
			lat = append(lat, f.Latency())
		}
	}
	return lat
}
