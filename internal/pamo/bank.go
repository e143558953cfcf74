package pamo

import (
	"sort"
	"sync"

	"repro/internal/videosim"
)

// Bank persists per-clip outcome models across Scheduler instances, keyed
// by clip name. The fault-tolerant runtime rebuilds the whole PaMO
// optimizer on every replan; without a bank each rebuild repays the full
// initial profiling bill for every clip. With one, clips seen before reuse
// their conditioned models outright, and clips arriving through churn
// warm-start from the bank entry of the most similar clip (factor-space
// distance) instead of cold profiling.
//
// The bank stores live pointers: a scheduler registers its models at
// construction and keeps conditioning them in place, so the next scheduler
// inherits everything learned so far. Lookups are mutex-guarded, but the
// models themselves are not — a bank must only be shared by schedulers
// that run one at a time (the runtime's replan loop), never by the
// sharded control plane's concurrent per-cell optimizers.
type Bank struct {
	mu      sync.Mutex
	entries map[string]*bankEntry
}

type bankEntry struct {
	clip   *videosim.Clip
	models *clipModels
}

// NewBank returns an empty model bank.
func NewBank() *Bank {
	return &Bank{entries: map[string]*bankEntry{}}
}

// Len returns the number of clips with banked models.
func (b *Bank) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// get returns the banked models for the exact clip name.
func (b *Bank) get(name string) (*clipModels, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[name]
	if !ok {
		return nil, false
	}
	return e.models, true
}

// donors returns the banked models of up to k clips most similar to clip
// in factor space, closest first, excluding clip's own name and entries
// that hold no measurements yet. Ties break toward the lexicographically
// smallest name, so donor selection is deterministic regardless of map
// iteration order.
func (b *Bank) donors(clip *videosim.Clip, k int) []*clipModels {
	b.mu.Lock()
	defer b.mu.Unlock()
	type cand struct {
		name string
		d    float64
		e    *bankEntry
	}
	cands := make([]cand, 0, len(b.entries))
	for name, e := range b.entries {
		if name == clip.Name || len(e.models.xs) == 0 {
			continue
		}
		cands = append(cands, cand{name: name, d: clip.FactorDistance(e.clip), e: e})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].name < cands[j].name
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]*clipModels, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.e.models)
	}
	return out
}

// put registers (or replaces) the models for clip.
func (b *Bank) put(clip *videosim.Clip, models *clipModels) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries[clip.Name] = &bankEntry{clip: clip, models: models}
}
