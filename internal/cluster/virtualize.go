package cluster

import (
	"fmt"
	"math"
)

// PhysicalServer is a heterogeneous edge machine: compute capacity in
// multiples of the homogeneous scheduling unit, plus its uplink bandwidth.
type PhysicalServer struct {
	Name   string
	Units  float64 // compute capacity in scheduling units (≥ 0)
	Uplink float64 // bits/s, shared by the VMs carved from this machine
}

// Virtualize implements the paper's Section 3 note that "heterogeneous
// servers can be virtualized as multiple homogeneous VMs or containers":
// each physical machine contributes ⌊Units⌋ unit-capacity servers, and the
// machine's uplink is divided evenly among them. Fractional capacity below
// one unit is dropped — a unit is the paper's atomic scheduling target.
func Virtualize(phys []PhysicalServer) ([]Server, error) {
	var out []Server
	for _, p := range phys {
		if p.Units < 0 || math.IsNaN(p.Units) {
			return nil, fmt.Errorf("cluster: server %q has invalid capacity %v", p.Name, p.Units)
		}
		n := int(p.Units)
		if n == 0 {
			continue
		}
		share := p.Uplink / float64(n)
		for k := 0; k < n; k++ {
			out = append(out, Server{
				Name:   fmt.Sprintf("%s/vm%d", p.Name, k),
				Uplink: share,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no whole scheduling units in %d physical servers", len(phys))
	}
	return out, nil
}
