package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Why a server shared by several cells stays zero-jitter
//
// Algorithm 1 never co-locates two groups, so Theorem 1's per-group offset
// argument suffices for the serial scheduler. The arbiter DOES co-locate:
// distinct cells' groups may commit onto one server, provided the union
// keeps Σ proc ≤ g where g = gcd of every committed period. That predicate
// is exactly the one sched.ExactGroup packs under, and it is sufficient on
// its own: every period is an integer multiple of g by definition of the
// gcd, so lay the union's streams out back-to-back inside one g-window
// (offset_k = Σ_{i<k} p_i < g). Whatever subset of streams releases a
// frame in any particular window, each frame occupies its own disjoint
// slice [offset_k, offset_k+p_k) of the window and is served on arrival —
// zero queueing, zero jitter. Plan.Offsets lays Theorem 1 offsets out
// over each MERGED group, so the committed plan inherits the
// guarantee; internal/check audits it against the simulator.
//
// Determinism and termination
//
// Rounds are barriers. Every pending cell proposes in parallel against the
// arbiter state frozen at round start (proposals are pure functions of
// that state and the cell's workload), then commits are attempted serially
// in ascending cell order against the live state. The first pending cell
// of each round therefore validates against exactly the state it planned
// on and must commit, so each round retires at least one cell and the
// protocol terminates within Shards rounds; a bounced cell re-proposes
// next round against the fresh state. Committed state only ever grows, so
// a proposal that finds no feasible server cannot be saved by waiting —
// the planner falls back to one serial full solve instead.

// Options tunes a Planner.
type Options struct {
	// Shards is the number of cells streams are partitioned into. With
	// Shards ≤ 1 the planner IS the serial scheduler (one
	// sched.ScheduleMasked call), byte for byte.
	Shards int
	// Sequential runs the propose phase one cell at a time on the calling
	// goroutine. Results are identical to the parallel mode by
	// construction; the differential fuzzer holds the planner to that.
	Sequential bool
	// Obs receives shard_* metrics and a per-solve span. Nil disables
	// telemetry at zero cost.
	Obs *obs.Recorder
	// Check, when non-nil, audits every plan this planner returns —
	// committed or fallen back — against the exact feasibility
	// constraints; under a strict checker a violation aborts the solve.
	Check *check.Checker
}

// Stats reports how one sharded solve went.
type Stats struct {
	Shards    int
	Rounds    int
	Conflicts int // proposals bounced by the arbiter
	Retries   int // re-propose attempts (= bounced proposals that re-ran)
	Commits   int
	// RetryHist[k] counts cells whose proposal committed after k bounces;
	// the last bucket absorbs the tail.
	RetryHist [retryBuckets]int
	// FellBack marks a solve that abandoned the sharded protocol for one
	// serial full solve (a cell could not group or place its streams).
	FellBack       bool
	ProposeSeconds float64
	CommitSeconds  float64
	// CellRetries[c] counts how many times cell c's proposal bounced off
	// the arbiter before committing — the per-cell attribution the benefit
	// ledger reports. Nil for serial (Shards ≤ 1) solves.
	CellRetries []int
}

// retryBuckets sizes the commit-retry histogram: buckets 0..6 and 7+.
const retryBuckets = 8

// colSlack bounds each cell's assignment problem: a proposal with g groups
// considers the best g·colSlack candidate servers instead of all of them.
// Candidates are ranked by occupancy then rotated index, and the proposal
// retries against the full server set before declaring itself stuck, so the
// cap costs quality never feasibility.
const colSlack = 2

// Planner runs the sharded control plane over one workload at a time. Its
// scratch (arbiter, per-cell buffers) is reused across solves; a Planner
// must not be shared by concurrent Plan calls.
type Planner struct {
	opt   Options
	arb   Arbiter
	cells []cellScratch
}

// cellScratch is the per-cell reusable state. Cell c is touched only by
// cell c's propose goroutine within a round, and rounds are barriers, so
// no scratch is ever shared across goroutines — the ownership discipline
// the race matrix in CI pins down.
type cellScratch struct {
	idx     int   // the cell's index — the commit order key
	global  []int // stream indices owned by the cell
	local   []sched.Stream
	trial   sched.ProcSum // exact-sum scratch of this cell's goroutine
	prop    Proposal
	retries int
	pending bool
	stuck   bool
	match   sched.Matcher
	cols    []int
}

// New returns a planner. Zero-value options mean: serial (Shards 1).
func New(opt Options) *Planner {
	if opt.Shards < 1 {
		opt.Shards = 1
	}
	return &Planner{opt: opt}
}

// Plan schedules the streams against the snapshot through the sharded
// protocol and returns the merged plan plus the solve's stats. The plan
// satisfies the exact Const1/Const2 feasibility constraints on every
// server — shared or not — or an error (wrapping sched.ErrInfeasible when
// capacity is the reason) is returned.
func (p *Planner) Plan(streams []sched.Stream, snap *sched.Snapshot) (sched.Plan, Stats, error) {
	return p.PlanCtx(context.Background(), streams, snap)
}

// PlanCtx is Plan with trace-context propagation: the shard_plan span
// parents under the span carried by ctx, each propose/commit round gets a
// shard_round child span, and every cell's proposal a shard_cell span
// under its round — the epoch → decide → shard round → cell chain the
// trace exporters render.
func (p *Planner) PlanCtx(ctx context.Context, streams []sched.Stream, snap *sched.Snapshot) (sched.Plan, Stats, error) {
	st := Stats{Shards: p.opt.Shards}
	reg := p.opt.Obs.Registry()
	pctx, sp := p.opt.Obs.StartSpanCtx(ctx, "shard_plan",
		obs.F("shards", float64(p.opt.Shards)),
		obs.F("streams", float64(len(streams))),
		obs.F("version", float64(snap.Version())))
	defer func() {
		sp.Field("rounds", float64(st.Rounds))
		sp.Field("conflicts", float64(st.Conflicts))
		sp.Field("fellback", obs.Bool(st.FellBack))
		sp.End()
	}()
	reg.Counter("shard_plans_total").Inc()

	if p.opt.Shards <= 1 {
		plan, err := sched.ScheduleMasked(streams, snap.Servers(), snap.Healthy())
		if err != nil {
			return sched.Plan{}, st, err
		}
		st.Commits = 1
		st.RetryHist[0] = 1
		return plan, st, p.audit(streams, plan, snap)
	}

	parts := Partition(streams, p.opt.Shards)
	if cap(p.cells) < len(parts) {
		p.cells = make([]cellScratch, len(parts))
	}
	p.cells = p.cells[:len(parts)]
	p.arb.Reset(snap)
	nPending := 0
	for c := range p.cells {
		cell := &p.cells[c]
		cell.idx = c
		cell.global = parts[c]
		cell.retries = 0
		cell.pending = len(parts[c]) > 0
		cell.stuck = false
		if cell.pending {
			nPending++
		}
	}

	for st.Rounds = 0; nPending > 0; st.Rounds++ {
		if st.Rounds >= 2*p.opt.Shards {
			// Unreachable by the termination argument above (Shards rounds
			// suffice); fail loudly rather than spin if it is ever broken.
			return sched.Plan{}, st, fmt.Errorf("shard: no progress after %d rounds", st.Rounds)
		}
		rctx, rsp := p.opt.Obs.StartSpanCtx(pctx, "shard_round",
			obs.F("round", float64(st.Rounds)),
			obs.F("pending", float64(nPending)))
		t0 := time.Now()
		p.proposeRound(rctx, streams, snap, st.Rounds)
		st.ProposeSeconds += time.Since(t0).Seconds()

		t0 = time.Now()
		for c := range p.cells {
			cell := &p.cells[c]
			if !cell.pending {
				continue
			}
			if cell.stuck {
				// No feasible grouping or placement exists for this cell
				// even against the current state; committed state only
				// grows, so retrying cannot help. One serial full solve
				// decides feasibility for the whole workload instead.
				reg.Counter("shard_fallbacks_total").Inc()
				st.FellBack = true
				st.CommitSeconds += time.Since(t0).Seconds()
				p.fillCellRetries(&st)
				rsp.Field("fellback", 1)
				rsp.End()
				plan, err := sched.ScheduleMasked(streams, snap.Servers(), snap.Healthy())
				if err != nil {
					return sched.Plan{}, st, err
				}
				return plan, st, p.audit(streams, plan, snap)
			}
			ok, _ := p.arb.Commit(&cell.prop)
			if !ok {
				st.Conflicts++
				st.Retries++
				cell.retries++
				reg.Counter("shard_conflicts_total").Inc()
				reg.Counter("shard_retries_total").Inc()
				p.opt.Obs.EventCtx(rctx, "shard_conflict",
					obs.F("cell", float64(cell.idx)),
					obs.F("retries", float64(cell.retries)))
				continue
			}
			st.Commits++
			reg.Counter("shard_commits_total").Inc()
			b := cell.retries
			if b >= retryBuckets {
				b = retryBuckets - 1
			}
			st.RetryHist[b]++
			cell.pending = false
			nPending--
			p.opt.Obs.EventCtx(rctx, "shard_commit",
				obs.F("cell", float64(cell.idx)),
				obs.F("retries", float64(cell.retries)),
				obs.F("groups", float64(len(cell.prop.Claims))))
		}
		st.CommitSeconds += time.Since(t0).Seconds()
		rsp.Field("committed", float64(st.Commits))
		rsp.End()
	}
	reg.Gauge("shard_rounds").Set(float64(st.Rounds))
	reg.Histogram("shard_commit_seconds", obs.DefBuckets).Observe(st.CommitSeconds)

	p.fillCellRetries(&st)
	plan := p.arb.Plan(len(streams))
	return plan, st, p.audit(streams, plan, snap)
}

// fillCellRetries copies the per-cell bounce counts into the stats — the
// ledger's per-cell conflict attribution.
func (p *Planner) fillCellRetries(st *Stats) {
	st.CellRetries = make([]int, len(p.cells))
	for c := range p.cells {
		st.CellRetries[c] = p.cells[c].retries
	}
}

// proposeRound computes a fresh proposal for every pending cell against the
// arbiter state frozen at round start — in parallel unless Sequential. Each
// cell's work is recorded as a shard_cell span under the round's span, and
// the propose goroutines carry a phase=shard_propose pprof label so CPU
// profiles attribute grouping/assignment time to the sharded plane.
func (p *Planner) proposeRound(ctx context.Context, streams []sched.Stream, snap *sched.Snapshot, round int) {
	proposeCell := func(ctx context.Context, c int) {
		_, csp := p.opt.Obs.StartSpanCtx(ctx, "shard_cell",
			obs.F("cell", float64(c)),
			obs.F("round", float64(round)),
			obs.F("streams", float64(len(p.cells[c].global))))
		p.propose(&p.cells[c], streams, snap)
		csp.Field("stuck", obs.Bool(p.cells[c].stuck))
		csp.Field("groups", float64(len(p.cells[c].prop.Claims)))
		csp.End()
	}
	if p.opt.Sequential {
		for c := range p.cells {
			if p.cells[c].pending {
				proposeCell(ctx, c)
			}
		}
		return
	}
	done := make(chan int, len(p.cells))
	n := 0
	for c := range p.cells {
		if !p.cells[c].pending {
			continue
		}
		n++
		go func(c int) {
			p.opt.Obs.Do(ctx, "shard_propose", func(ctx context.Context) {
				proposeCell(ctx, c)
			})
			done <- c
		}(c)
	}
	for ; n > 0; n-- {
		<-done
	}
}

// propose builds cell's claim set against the current (frozen) arbiter
// state: group the cell's streams with Algorithm 1's grouping, rank
// candidate servers utilization-aware, and solve the group→server
// assignment minimizing transmission latency over residual-feasible pairs.
// On failure the cell is marked stuck and the planner falls back.
func (p *Planner) propose(cell *cellScratch, streams []sched.Stream, snap *sched.Snapshot) {
	cell.local = cell.local[:0]
	for _, si := range cell.global {
		cell.local = append(cell.local, streams[si])
	}
	nHealthy := snap.NumHealthy()
	if nHealthy == 0 {
		cell.stuck = true
		return
	}
	groups, err := sched.GroupStreams(cell.local, nHealthy)
	if err != nil {
		cell.stuck = true
		return
	}

	// Claims skeleton: per non-empty group, exact gcd / Σ proc / bits.
	cell.prop.Cell = cell.idx
	cell.prop.Version = p.arb.Version()
	cell.prop.Claims = cell.prop.Claims[:0]
	for _, members := range groups {
		if len(members) == 0 {
			continue
		}
		var cl Claim
		cl.Members = make([]int, len(members))
		cell.trial.Reset()
		for k, li := range members {
			cl.Members[k] = cell.global[li]
			s := &cell.local[li]
			cl.GCD = sched.RatGCD(cl.GCD, s.Period)
			if !cell.trial.Add(s.Proc) {
				cell.stuck = true
				return
			}
			cl.Bits += s.Bits
		}
		cl.Sum.Set(&cell.trial)
		cell.prop.Claims = append(cell.prop.Claims, cl)
	}
	if len(cell.prop.Claims) == 0 {
		cell.stuck = true // pending cell with no placeable groups
		return
	}

	// Candidate columns, utilization-aware and decorrelated: fewest
	// committed claims first (spread load over the cluster), ties broken by
	// physical index ROTATED by the cell's slice of the server space. The
	// rotation is what makes optimism pay: with identical orderings every
	// cell would stake the same least-claimed servers and all but the first
	// committer would bounce every round; rotated, cells prefer disjoint
	// ranges and conflicts only happen where ranges genuinely overlap.
	// Deterministic — the key depends only on (cell index, round state).
	cell.cols = snap.HealthyIndices(cell.cols[:0])
	rot := 0
	if p.opt.Shards > 0 {
		rot = cell.idx * len(cell.cols) / p.opt.Shards
	}
	slices.SortStableFunc(cell.cols, func(a, b int) int {
		ca, cb := p.arb.states[a].claims, p.arb.states[b].claims
		if ca != cb {
			return ca - cb
		}
		n := len(cell.cols)
		return (a+n-rot)%n - (b+n-rot)%n
	})
	rows := len(cell.prop.Claims)
	if limit := rows * colSlack; limit < len(cell.cols) {
		if p.assign(cell, cell.cols[:limit], snap) {
			return
		}
		// The capped candidate set had no feasible assignment; give the
		// proposal every healthy server before declaring the cell stuck.
	}
	if !p.assign(cell, cell.cols, snap) {
		cell.stuck = true
	}
}

// assign solves the cell's group→candidate-server assignment over the given
// columns. It fills each claim's Server and returns true, or returns false
// when no finite-cost perfect assignment of the real rows exists.
func (p *Planner) assign(cell *cellScratch, cols []int, snap *sched.Snapshot) bool {
	rows := len(cell.prop.Claims)
	if rows > len(cols) {
		return false
	}
	servers := snap.Servers()
	cost := cell.match.Build(rows, func(r int) float64 { return cell.prop.Claims[r].Bits }, cols, servers)
	for r := range cell.prop.Claims {
		cl := &cell.prop.Claims[r]
		for c, j := range cols {
			// Empty full-speed servers are feasible without the exact
			// check: a GroupStreams group satisfies Σ proc ≤ min period =
			// its own gcd by construction, and commit re-validates exactly
			// anyway, so a propose-side shortcut can cost at most a bounce.
			// Slow servers (speed < 1) shrink the budget below that
			// construction guarantee, so they always take the exact check —
			// a shortcut there could propose a claim that can NEVER commit,
			// breaking the termination argument.
			occupied := p.arb.states[j].claims > 0 || servers[j].Speed() < 1
			if occupied && !p.arb.fits(j, cl.GCD, &cl.Sum, &cell.trial) {
				cost[r][c] = math.Inf(1)
			}
		}
	}
	assign, _, ok := cell.match.Solve()
	if !ok {
		return false
	}
	for r := 0; r < rows; r++ {
		cell.prop.Claims[r].Server = cols[assign[r]]
	}
	return true
}

// audit runs the committed (or fallen-back) plan through the configured
// checker: structural consistency plus the exact Const1/Const2 verifiers on
// the merged per-server stream sets — the load-bearing guarantee that no
// multi-cell commit ever violates feasibility on a shared server.
func (p *Planner) audit(streams []sched.Stream, plan sched.Plan, snap *sched.Snapshot) error {
	return p.opt.Check.VerifyPlanServers(streams, plan, snap.Servers(), snap.Healthy())
}
