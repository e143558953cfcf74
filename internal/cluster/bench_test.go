package cluster

import "testing"

// BenchmarkArenaSimulateServer times one warm arena simulating one server
// over a 30 s horizon (eva.EvalHorizon) at three shapes: the
// fleet-placement server (8 streams at 5 fps on their zero-jitter slot
// train), a PaMO-day server (3 streams at mixed frame rates) and a crowded
// one (64 streams at four frame rates, overloaded at a utilization near 2,
// so copied in the saturated regime). It reports the cost per logical
// frame (every frame of the horizon, served or extrapolated) and the frames
// actually served per call.
func BenchmarkArenaSimulateServer(b *testing.B) {
	equal, srv := fleetServer()
	mixed := []StreamSpec{
		{Period: 1.0 / 30, Proc: 0.012, Bits: 3e5},
		{Period: 1.0 / 15, Proc: 0.02, Bits: 2e5},
		{Period: 0.1, Proc: 0.015, Bits: 1e5, Offset: 0.004},
	}
	many, _ := arenaWorkload(64)
	for _, bc := range []struct {
		name    string
		streams []StreamSpec
	}{
		{"equal8", equal},
		{"mixed3", mixed},
		{"many64", many},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewArena()
			frames := a.SimulateServer(bc.streams, srv, 30).FrameCount
			served := a.simulated
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchResult = a.SimulateServer(bc.streams, srv, 30)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
			b.ReportMetric(float64(served), "served/op")
		})
	}
}

// BenchmarkArenaSaturatedServer times one warm arena simulating a crowded
// saturated server over 30 s: arenaWorkload's 64 streams at four frame
// rates with their service times scaled to a utilization of 1.2, so from
// its second hyperperiod on the server never idles and the closed form
// copies its back-to-back window. Metrics as BenchmarkArenaSimulateServer.
func BenchmarkArenaSaturatedServer(b *testing.B) {
	streams, srv := arenaWorkload(64)
	util := 0.0
	for _, s := range streams {
		util += s.Proc / s.Period
	}
	for i := range streams {
		streams[i].Proc *= 1.2 / util
	}
	a := NewArena()
	frames := a.SimulateServer(streams, srv, 30).FrameCount
	served, saturated := a.simulated, a.saturated
	if !saturated {
		b.Fatalf("served %d of %d frames without copying a saturated window", served, frames)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = a.SimulateServer(streams, srv, 30)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
	b.ReportMetric(float64(served), "served/op")
}

var benchResult Result
