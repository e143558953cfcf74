// Package cluster is a discrete-event simulator of an edge video analytics
// cluster: periodic frame capture at the cameras, uplink transmission, and
// non-preemptive FIFO inference on each server. It reproduces the queueing
// phenomena the paper's scheduler is designed around — latency accumulation
// under computational overload (Figure 3a) and delay jitter under poor
// period grouping (Figure 4) — and is used to verify Theorems 1–3
// empirically.
package cluster

import (
	"fmt"
	"math"
)

// StreamSpec describes one periodic stream as the simulator sees it.
type StreamSpec struct {
	Name   string
	Period float64 // inter-frame period T = 1/fps, seconds
	Offset float64 // capture offset of the first frame, seconds
	Proc   float64 // per-frame inference time on a server, seconds
	Bits   float64 // encoded size of one frame, bits
}

// Server describes one edge server.
type Server struct {
	Name   string
	Uplink float64 // uplink bandwidth B, bits/s
	// SpeedFactor scales the server's processing rate: a frame whose
	// nominal cost is Proc seconds occupies this server for
	// Proc/SpeedFactor seconds. Zero (the homogeneous default) means 1,
	// so existing configurations and golden traces are unchanged.
	SpeedFactor float64
}

// Speed returns the effective processing-rate factor: SpeedFactor when
// positive, else 1. Non-finite or non-positive values fall back to the
// homogeneous default rather than poisoning the simulation.
func (s Server) Speed() float64 {
	if !(s.SpeedFactor > 0) || math.IsInf(s.SpeedFactor, 1) {
		return 1
	}
	return s.SpeedFactor
}

// FrameRecord is the simulated life of one frame.
type FrameRecord struct {
	Stream  int
	Seq     int
	Capture float64 // capture instant at the camera
	Arrive  float64 // arrival at the server (capture + transmission)
	Start   float64 // inference start
	Finish  float64 // inference completion
}

// Latency returns the frame's end-to-end latency (capture to completion).
func (f FrameRecord) Latency() float64 { return f.Finish - f.Capture }

// Wait returns the queueing delay the frame suffered at the server.
func (f FrameRecord) Wait() float64 { return f.Start - f.Arrive }

// StreamStats summarizes one stream's simulated frames.
type StreamStats struct {
	Frames     int
	MeanLat    float64
	MinLat     float64
	MaxLat     float64
	Jitter     float64 // MaxLat - MinLat
	MaxWait    float64 // worst queueing delay
	Throughput float64 // frames *completed within the horizon* per second
}

// Result is the outcome of simulating one server.
type Result struct {
	Frames    []FrameRecord // the frame log; nil from Arena.SimulateServer
	PerStream []StreamStats
	// LatSum is the running sum of every frame's Latency in service
	// order, starting from 0, and FrameCount the number of frames served.
	// Both are filled on every path, frame log or not.
	LatSum      float64
	FrameCount  int
	MaxJitter   float64 // max over streams
	MaxWait     float64
	Utilization float64 // busy time / horizon
}

// JitterEps is the tolerance under which a simulated jitter counts as zero;
// it absorbs float accumulation over the horizon.
const JitterEps = 1e-6

// SimulateServer runs all streams on a single server for the given horizon
// (seconds). Frames are served in arrival order (FIFO, non-preemptive);
// ties in arrival time are broken by stream index, which matches a
// deterministic NIC delivering interleaved packets. It runs on a fresh
// Arena and also logs every frame into Result.Frames, so the result is the
// caller's to keep.
func SimulateServer(streams []StreamSpec, srv Server, horizon float64) Result {
	return NewArena().simulate(streams, srv, horizon, true, 0)
}

// Assignment maps each stream index to a server index (or -1 = unassigned,
// which drops the stream from the simulation).
type Assignment []int

// SimulateCluster partitions the streams by assignment and simulates each
// server independently (uplinks are dedicated per-camera channels, as in
// the paper's model where only server uplink bandwidth matters). Each
// result carries its server's frame log. It panics on an assignment of the
// wrong length or naming a server outside [-1, len(servers)).
func SimulateCluster(streams []StreamSpec, servers []Server, assign Assignment, horizon float64) []Result {
	checkAssignment(streams, servers, assign)
	out := make([]Result, len(servers))
	// One spec buffer serves every server: the simulator reads it during
	// the call and keeps no reference.
	sub := make([]StreamSpec, 0, len(streams))
	for j := range servers {
		sub = sub[:0]
		for i, a := range assign {
			if a == j {
				sub = append(sub, streams[i])
			}
		}
		out[j] = SimulateServer(sub, servers[j], horizon)
	}
	return out
}

// checkAssignment panics on an assignment of the wrong length or naming a
// server outside [-1, len(servers)).
func checkAssignment(streams []StreamSpec, servers []Server, assign Assignment) {
	if len(assign) != len(streams) {
		panic(fmt.Sprintf("cluster: %d assignments for %d streams", len(assign), len(streams)))
	}
	for i, a := range assign {
		if a < -1 || a >= len(servers) {
			panic(fmt.Sprintf("cluster: stream %d assigned to server %d of %d", i, a, len(servers)))
		}
	}
}

// MaxJitter returns the worst per-stream jitter across the cluster results.
func MaxJitter(results []Result) float64 {
	var m float64
	for _, r := range results {
		m = math.Max(m, r.MaxJitter)
	}
	return m
}

// MeanLatency returns the frame-weighted mean end-to-end latency across the
// cluster results.
func MeanLatency(results []Result) float64 {
	var sum float64
	var n int
	for _, r := range results {
		for _, f := range r.Frames {
			sum += f.Latency()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ZeroJitterOffsetsOn assigns capture offsets so that the streams' *server
// arrivals* follow the pattern prescribed by the proof of Theorem 1:
// a(τ₁) = C, a(τ_k) = C + Σ_{i<k} p_i/speed. Streams must already be grouped
// so that Σ p_i ≤ gcd of the periods · speed; the offsets then guarantee
// that no two frames ever contend on the server.
//
// Because a frame reaches the server one transmission delay after capture,
// the capture offset compensates for the per-stream delay bits/uplink; the
// common shift C = max(tx) keeps all capture offsets non-negative. The
// back-to-back slot accumulation uses the server's *effective* service
// times p_i/speed, which is what Theorem 1's proof actually needs — the
// k-th stream's frame must arrive exactly when the server finishes the
// previous k-1 frames of the slot train.
func ZeroJitterOffsetsOn(streams []StreamSpec, srv Server) []StreamSpec {
	out := append([]StreamSpec(nil), streams...)
	ZeroJitterOffsetsInPlaceOn(out, srv)
	return out
}
