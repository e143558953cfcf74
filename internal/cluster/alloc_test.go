//go:build !race

package cluster

import "testing"

// TestArenaSimulateZeroAlloc pins the steady-state allocation budget of the
// arena simulator: after the first epoch sizes the buffers, replaying the
// same workload must not touch the heap, and neither must a warm arena
// cycling through smaller servers, whose merge rings are shorter, or
// alternating servers that take the hyperperiod path, in either regime,
// with ones served in full, a saturated one among them. (Skipped under
// -race, which instruments allocation.)
func TestArenaSimulateZeroAlloc(t *testing.T) {
	streams, srv := arenaWorkload(16)
	a := NewArena()
	a.SimulateServer(streams, srv, 5) // size the buffers
	if n := testing.AllocsPerRun(20, func() { a.SimulateServer(streams, srv, 5) }); n != 0 {
		t.Fatalf("warm Arena.SimulateServer allocates %v times per run, want 0", n)
	}
	many, _ := arenaWorkload(64)
	cycle := NewArena()
	cycle.SimulateServer(many, srv, 2) // size the buffers at the largest server
	if n := testing.AllocsPerRun(10, func() {
		for _, k := range []int{1, 8, 17, 64} {
			cycle.SimulateServer(many[:k], srv, 2)
		}
	}); n != 0 {
		t.Fatalf("warm Arena.SimulateServer over 1, 8, 17 and 64 streams allocates %v times per cycle, want 0", n)
	}
	// A warm arena alternating servers the hyperperiod rule extrapolates
	// (the fleet server, a light mixed-rate one, the crowded overloaded one
	// and a lightly overloaded one, saturated) with ones it serves in full
	// (an arrival near-tie, and a saturated server whose copies would finish
	// on the horizon, given up after its window) over eva.EvalHorizon.
	fleet, fleetSrv := fleetServer()
	light, _ := arenaWorkload(6)
	tie := []StreamSpec{{Period: 0.2, Proc: 0.01}, {Period: 0.1, Proc: 0.02, Offset: 0.5 * idleEps}}
	over, onHorizon := overloaded(0.0025), overloaded(0)
	alt := NewArena()
	alt.SimulateServer(many, srv, 30) // size the buffers at the largest server
	if n := testing.AllocsPerRun(10, func() {
		alt.SimulateServer(fleet, fleetSrv, 30)
		alt.SimulateServer(many, srv, 30)
		alt.SimulateServer(light, srv, 30)
		alt.SimulateServer(tie, Server{}, 30)
		alt.SimulateServer(over, Server{}, 30)
		alt.SimulateServer(onHorizon, Server{}, 30)
	}); n != 0 {
		t.Fatalf("warm Arena.SimulateServer alternating extrapolated and full runs allocates %v times per cycle, want 0", n)
	}
	servers := []Server{srv, {Uplink: 1e7}, srv}
	assign := make(Assignment, len(streams))
	for i := range assign {
		assign[i] = i%4 - 1
	}
	a.MeanLatency(streams, servers, assign, 5) // size the subset buffer
	if n := testing.AllocsPerRun(20, func() { a.MeanLatency(streams, servers, assign, 5) }); n != 0 {
		t.Fatalf("warm Arena.MeanLatency allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ZeroJitterOffsetsInPlaceOn(streams, srv) }); n != 0 {
		t.Fatalf("ZeroJitterOffsetsInPlaceOn allocates %v times per run, want 0", n)
	}
}
