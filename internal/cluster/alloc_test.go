//go:build !race

package cluster

import "testing"

// TestArenaSimulateZeroAlloc pins the steady-state allocation budget of the
// arena simulator: after the first epoch sizes the buffers, replaying the
// same workload must not touch the heap, and neither must a warm arena
// cycling through smaller servers, whose merge rings are shorter. (Skipped
// under -race, which instruments allocation.)
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
