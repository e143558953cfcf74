package runtime

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/eva"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/videosim"
)

// ChurnFeed adapts a fault.ChurnScript to the controller's OpSource:
// scripted departures become deregisters by name, scripted arrivals mint a
// videosim.Clip whose content factors are derived from (seed, name) — never
// from drain order — so the same script always produces the same streams.
type ChurnFeed struct {
	script *fault.ChurnScript
	seed   uint64
	next   int
}

// NewChurnFeed returns an OpSource replaying the script. The script's ops
// must be in non-decreasing epoch order (fault.GenerateChurn emits them
// that way).
func NewChurnFeed(script *fault.ChurnScript, seed uint64) *ChurnFeed {
	return &ChurnFeed{script: script, seed: seed}
}

// Drain implements OpSource.
func (f *ChurnFeed) Drain(epoch int) []StreamOp {
	var ops []StreamOp
	for f.next < len(f.script.Ops) && f.script.Ops[f.next].Epoch <= epoch {
		op := f.script.Ops[f.next]
		f.next++
		if op.Add {
			ops = append(ops, StreamOp{Add: MintClip(op.Name, f.seed)})
		} else {
			ops = append(ops, StreamOp{Remove: op.Name})
		}
	}
	return ops
}

// MintClip builds the deterministic clip for a churn-script stream name:
// factors are drawn from a PCG keyed on (seed, FNV-1a of the name).
func MintClip(name string, seed uint64) *videosim.Clip {
	h := fnv.New64a()
	h.Write([]byte(name))
	return videosim.NewClip(name, rand.New(rand.NewPCG(seed, h.Sum64())))
}

// splitStreamOps canonicalizes a drained op batch: deregisters before
// registers, each phase sorted by stream name (stable). Drain's slice order
// is whatever the op source's transport produced — with in-order
// application a same-epoch deregister+register of one stream ID would
// silently resurrect or drop the stream depending on arrival order.
// Canonicalized, such a pair always nets out to "replace".
func splitStreamOps(ops []StreamOp) (removes []string, adds []*videosim.Clip) {
	for _, op := range ops {
		if op.Remove != "" {
			removes = append(removes, op.Remove)
		}
		if op.Add != nil {
			adds = append(adds, op.Add)
		}
	}
	sort.Strings(removes)
	sort.SliceStable(adds, func(i, j int) bool { return adds[i].Name < adds[j].Name })
	return removes, adds
}

// churnAdmitEvict is the churn fast path: apply this epoch's canonicalized
// stream ops to the system AND to the replanner's frozen grouping — exact
// Const2 eviction for departures, exact Const2 admission into compatible
// groups for arrivals — so the epoch's replan can run incrementally instead
// of paying a full Algorithm 1 resolve plus cold profiling. Arrivals borrow
// the configuration of the most similar live clip (factor-space distance,
// deterministic). ok=false leaves the controller on the full-resolve path
// (the replanner may have been invalidated); on ok=true the returned
// decision is a baseline skeleton — Configs and Streams are final, the
// assignment is produced by the incremental replan that the caller forces
// this epoch.
func (c *Controller) churnAdmitEvict(rp *sched.Replanner, removes []string, adds []*videosim.Clip, current eva.Decision, healthy []bool) (eva.Decision, bool) {
	if current.IsDegraded() || !current.ZeroJit || len(current.Streams) == 0 {
		return eva.Decision{}, false
	}
	base := rp.Streams()
	if len(base) != len(current.Streams) {
		return eva.Decision{}, false
	}
	for i, s := range base {
		p := current.Streams[i]
		if s.Video != p.Video || s.Sub != p.Sub || s.Period != p.Period {
			return eva.Decision{}, false
		}
	}

	// Old-index bookkeeping before the system mutates underneath it.
	oldClips := c.Sys.Clips
	removed := make([]bool, len(oldClips))
	for _, name := range removes {
		for v, clip := range oldClips {
			if clip.Name == name && !removed[v] {
				removed[v] = true
				break
			}
		}
	}
	remap := make([]int, len(oldClips))
	next := 0
	for v := range oldClips {
		if removed[v] {
			remap[v] = -1
			continue
		}
		remap[v] = next
		next++
	}
	if next == 0 {
		return eva.Decision{}, false // everything departed; no donor to borrow from
	}

	// Evict departures from the frozen grouping (always feasible — budgets
	// only shrink) and remap the survivors onto the compacted indexing.
	mask := make([]bool, len(base))
	for i, s := range base {
		mask[i] = removed[s.Video]
	}
	if !rp.Evict(mask) || !rp.RemapVideos(remap) {
		rp.Invalidate()
		return eva.Decision{}, false
	}

	// The system itself: removals compact the clip slice, additions append —
	// same canonical order, so arrival k gets video index next+k.
	c.applyCanonicalOps(removes, adds)
	newConfigs := make([]videosim.Config, len(c.Sys.Clips))
	for v, nv := range remap {
		if nv >= 0 {
			newConfigs[nv] = current.Configs[v]
		}
	}

	// Admit arrivals: donor = most similar surviving live clip in factor
	// space; its configuration seeds the arrival. Admission into the frozen
	// grouping is exact; any failure invalidates and falls back whole.
	for k, clip := range adds {
		v := next + k
		donor := c.mostSimilarClip(clip, next)
		if donor < 0 {
			rp.Invalidate()
			return eva.Decision{}, false
		}
		newConfigs[v] = newConfigs[donor]
		arrival := sched.SplitHighRate([]sched.Stream{eva.TrueStream(clip, v, newConfigs[v])})
		for _, s := range arrival {
			if _, ok := rp.Admit(s, c.Sys.Servers, healthy); !ok {
				rp.Invalidate()
				return eva.Decision{}, false
			}
		}
	}

	return eva.Decision{
		Configs: newConfigs,
		Streams: append([]sched.Stream(nil), rp.Streams()...),
		ZeroJit: true,
	}, true
}

// mostSimilarClip returns the index of the live clip (over the first n
// post-churn videos — the survivors) closest to clip in per-clip factor
// space (videosim.Clip.FactorDistance), ties broken toward the lower index.
// −1 when no survivor exists.
func (c *Controller) mostSimilarClip(clip *videosim.Clip, n int) int {
	best, bestD := -1, math.Inf(1)
	for v := 0; v < n && v < len(c.Sys.Clips); v++ {
		if d := clip.FactorDistance(c.Sys.Clips[v]); d < bestD {
			best, bestD = v, d
		}
	}
	return best
}
