package shard

import "slices"

// splitmix64 is the avalanche finalizer used to hash video ids onto cells:
// deterministic, seed-free, and uncorrelated with the id's low bits (video
// ids are sequential, so a plain modulus would stripe systematically).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PartitionVideos splits m video indices into at most `cells` cells by a
// static hash of the video id, balanced by video count. These are the cells
// of the sharded control plane: the runtime's per-cell schedulers decide
// over them before any configuration (and therefore any utilization) is
// known, and Plan places each one on its own slice of the servers.
// Deterministic; no cell is left empty while another holds two or more
// videos.
func PartitionVideos(m, cells int) [][]int {
	if cells < 1 {
		cells = 1
	}
	if cells > m {
		cells = m
	}
	out := make([][]int, cells)
	for v := 0; v < m; v++ {
		c := int(splitmix64(uint64(v)) % uint64(cells))
		out[c] = append(out[c], v)
	}
	// Count-rebalance: move the highest-id video of the fullest cell into
	// the emptiest while the gap exceeds one.
	for iter := 0; iter < m; iter++ {
		hi, lo := 0, 0
		for c := 1; c < cells; c++ {
			if len(out[c]) > len(out[hi]) {
				hi = c
			}
			if len(out[c]) < len(out[lo]) {
				lo = c
			}
		}
		if len(out[hi])-len(out[lo]) <= 1 {
			break
		}
		last := out[hi][len(out[hi])-1]
		out[hi] = out[hi][:len(out[hi])-1]
		out[lo] = append(out[lo], last)
	}
	for c := range out {
		slices.Sort(out[c])
	}
	return out
}
