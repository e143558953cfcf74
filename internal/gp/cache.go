package gp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/mat"
)

// Generation identifies the current factorization epoch of the model. It
// advances on every full refactorization — Fit, hyperparameter refits, and
// Extend fallbacks — and stays put across successful incremental
// AddObservation/Append extensions and SetTargets calls, because neither
// changes the kernel or invalidates previously computed cross-covariances.
// CrossCache uses it as its invalidation signal.
func (g *Multi) Generation() uint64 { return g.gen }

// CrossCache memoizes cross-covariance vectors k(x, X) between query points
// and the model's training inputs. The BO loop scores the same candidate
// pool every iteration while the training set grows by one point per
// iteration, so each cached vector is extended with the single new kernel
// column instead of being recomputed from scratch.
//
// Invalidation contract (see DESIGN.md "Scaling"): entries are valid for a
// fixed (kernel hyperparameters, training prefix) pair. The cache snapshots
// the model's Generation() and drops everything when it changes — i.e. on
// Fit or an Extend numerical fallback. A successful AddObservation or Append
// leaves the generation untouched; cached vectors are then lazily extended
// (they are strictly a prefix of the new k(x, X)).
//
// The cache is safe for concurrent use. Returned vectors are cache-owned
// and must be treated as read-only; they remain valid (at their returned
// length) even while other goroutines extend the cache.
type CrossCache struct {
	g *Multi

	mu      sync.Mutex
	gen     uint64
	entries map[string]mat.Vector
	key     []byte // scratch for building map keys without per-call allocs
}

// NewCrossCache returns an empty cross-covariance cache bound to g. One
// cache serves every column of g, since they share k(x, X).
func (g *Multi) NewCrossCache() *CrossCache {
	return &CrossCache{g: g, entries: make(map[string]mat.Vector)}
}

// vec returns the cached k(x, X) vector of one query point: cache-owned
// and read-only.
func (c *CrossCache) vec(x []float64) mat.Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	return c.lookup(x)
}

// PredictMean writes every column's posterior mean at x into mu using the
// cached cross-covariance, bit-identical to Multi.PredictMean.
func (c *CrossCache) PredictMean(x []float64, mu []float64) {
	if c.g.chol == nil {
		panic(ErrNotFitted)
	}
	c.g.means(mu, c.vec(x))
}

// sync drops all entries when the model has refactorized since the last
// call. Must be called with c.mu held.
func (c *CrossCache) sync() {
	if g := c.g.Generation(); g != c.gen {
		clear(c.entries)
		c.gen = g
	}
}

// lookup returns the cached k(x, X) vector, creating or lazily extending it
// to the current training size. Must be called with c.mu held.
func (c *CrossCache) lookup(x []float64) mat.Vector {
	key := c.key[:0]
	for _, v := range x {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
	}
	c.key = key
	n := c.g.N()
	e, ok := c.entries[string(key)]
	if ok && len(e) == n {
		return e
	}
	// Extension appends to the tail, so slices previously handed out keep
	// their (shorter) length and stay valid for readers mid-flight.
	have := len(e)
	e = slices.Grow(e, n-have)[:n]
	c.g.cross(e[have:], have, x)
	c.entries[string(key)] = e
	return e
}

// PredictBatchWith is PredictBatch with workspace-backed outputs and an
// optional cross-covariance cache: it builds V = L⁻¹·K* and the posterior
// covariance K** − VᵀV once for every column. The returned means (row c is
// column c's mean vector) and covariance live in ws and are valid only until
// the next ws.Reset; results are bit-identical to PredictBatch. A nil cc
// computes cross-covariances into the workspace instead. A warm workspace
// and cache make the call allocation-free.
func (g *Multi) PredictBatchWith(ws *mat.Workspace, cc *CrossCache, xs [][]float64) (mu, cov *mat.Matrix) {
	if g.chol == nil {
		panic(ErrNotFitted)
	}
	n, q := len(g.x), len(xs)
	mu = ws.Mat(len(g.cols), q)
	// Vᵀ stored row-major: row j is L⁻¹·k(x_j, X), so the covariance loop
	// below streams contiguous rows.
	vt := ws.Mat(q, n)
	m := ws.Vec(len(g.cols))
	// Queries are forward-solved four per pass over L. Without a cache, a
	// query's cross-covariance is computed into its own row of Vᵀ and
	// solved in place.
	var ks, vs [4]mat.Vector
	for j0 := 0; j0 < q; j0 += len(ks) {
		k := min(len(ks), q-j0)
		for t := range k {
			j := j0 + t
			vs[t] = vt.Row(j)
			if cc != nil {
				ks[t] = cc.vec(xs[j])
			} else {
				ks[t] = vs[t]
				g.cross(ks[t], 0, xs[j])
			}
			g.means(m, ks[t])
			for c, v := range m {
				mu.Set(c, j, v)
			}
		}
		mat.ForwardSolveRowsTo(vs[:k], g.chol.L, ks[:k])
	}
	cov = ws.Mat(q, q)
	for a := 0; a < q; a++ {
		va := vt.Row(a)
		for b := a; b < q; b++ {
			s := g.Kern.Eval(xs[a], xs[b])
			vb := vt.Row(b)
			for i := 0; i < n; i++ {
				s -= va[i] * vb[i]
			}
			cov.Set(a, b, s)
			cov.Set(b, a, s)
		}
	}
	return mu, cov
}

// PredictBatchWith is Multi.PredictBatchWith returning the single column's
// mean vector.
func (g *GP) PredictBatchWith(ws *mat.Workspace, cc *CrossCache, xs [][]float64) (mat.Vector, *mat.Matrix) {
	mu, cov := g.Multi.PredictBatchWith(ws, cc, xs)
	return mu.Row(0), cov
}

// SampleJointWith draws joint posterior samples at xs for every column
// into the caller-owned rows: rows[c][s] (len(xs) long) receives column c's
// sample s. The posterior covariance and its jittered factor are built once
// and shared; column c then draws its len(rows[c]) samples from its own
// rngs[c], exactly as an independent single-column model holding that
// column would from the same stream. Intermediates live in ws and come
// from the optional cross-covariance cache, so a warm workspace and cache
// make the call allocation-free. A covariance that cannot be factorized
// even with jitter degrades every column to its mean and counts one
// fallback per column.
func (g *Multi) SampleJointWith(ws *mat.Workspace, cc *CrossCache, xs [][]float64, rows [][][]float64, rngs []*rand.Rand) {
	if len(rngs) != len(g.cols) || len(rows) != len(g.cols) {
		panic(fmt.Sprintf("gp: %d RNG streams and %d row sets for a %d-column model", len(rngs), len(rows), len(g.cols)))
	}
	mu, cov := g.PredictBatchWith(ws, cc, xs)
	q := len(xs)
	l := factorCov(ws.Mat(q, q), cov, len(g.cols), g.fallbacks)
	z := ws.Vec(q)
	for c := range rows {
		drawRows(rows[c], mu.Row(c), l, z, rngs[c])
	}
}

// SampleJointWith is SampleJoint with workspace-backed intermediates and an
// optional cross-covariance cache: only the returned sample rows are
// allocated. The draws are bit-identical to SampleJoint given the same rng
// state.
func (g *GP) SampleJointWith(ws *mat.Workspace, cc *CrossCache, xs [][]float64, nSamples int, rng *rand.Rand) [][]float64 {
	out := newRows(nSamples, len(xs))
	g.Multi.SampleJointWith(ws, cc, xs, [][][]float64{out}, []*rand.Rand{rng})
	return out
}
