package sched

import (
	"fmt"

	"repro/internal/cluster"
)

// Snapshot is an immutable, versioned view of the cluster as one planning
// decision sees it: the server capacities and the liveness mask, fixed at
// capture time. The sharded control plane plans every cell off one
// snapshot, so all cells see the same servers and the same liveness mask,
// and its version (the runtime uses the epoch) ties each solve's telemetry
// back to control time.
//
// Construction deep-copies both slices; accessors hand back internal state
// that callers must treat as read-only. A nil healthy mask means every
// server is up.
type Snapshot struct {
	version uint64
	servers []cluster.Server
	healthy []bool
}

// NewSnapshot captures the cluster state under the given version. The
// version is owner-assigned and monotone per control loop (the runtime uses
// the epoch).
func NewSnapshot(version uint64, servers []cluster.Server, healthy []bool) *Snapshot {
	s := &Snapshot{
		version: version,
		servers: append([]cluster.Server(nil), servers...),
	}
	if healthy != nil {
		if len(healthy) != len(servers) {
			panic(fmt.Sprintf("sched: snapshot mask length %d for %d servers", len(healthy), len(servers)))
		}
		s.healthy = append([]bool(nil), healthy...)
	}
	return s
}

// Version returns the snapshot's version stamp.
func (s *Snapshot) Version() uint64 { return s.version }

// NumServers returns the number of physical servers (healthy or not).
func (s *Snapshot) NumServers() int { return len(s.servers) }

// Servers returns the snapshot's server table. Read-only.
func (s *Snapshot) Servers() []cluster.Server { return s.servers }

// Healthy returns the liveness mask (nil = all up). Read-only.
func (s *Snapshot) Healthy() []bool { return s.healthy }

// HealthyIndices appends the physical indices of the healthy servers, in
// ascending order, to dst.
func (s *Snapshot) HealthyIndices(dst []int) []int {
	return healthyCols(dst, len(s.servers), s.healthy)
}
