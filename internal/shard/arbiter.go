package shard

import (
	"repro/internal/cluster"
	"repro/internal/sched"
)

// Claim is one group→server claim of a cell's proposal: place the streams
// in Members (global indices) on Server. GCD and Sum summarize the group
// for the exact admission check; Bits is the group's total frame size, so
// the committed plan's communication latency is an exact running sum.
type Claim struct {
	Server  int
	Members []int
	GCD     sched.Rational // exact gcd of member periods
	Sum     sched.ProcSum  // exact Σ proc over members
	Bits    float64
}

// Proposal is a cell's complete claim set, planned against one snapshot
// version. Claims target distinct servers (each cell's assignment problem
// gives every group its own column).
type Proposal struct {
	Cell    int
	Version uint64 // arbiter version the cell planned against
	Claims  []Claim
}

// serverState is the committed occupancy of one server: the exact gcd of
// every committed stream's period, the exact Σ proc, and the committed
// member streams in commit order (the order Theorem 1 offsets are laid out
// in). A server holding groups from multiple cells stays zero-jitter
// because commits preserve Σ proc ≤ gcd over the union — see the package
// comment in planner.go for the argument.
type serverState struct {
	gcd     sched.Rational
	sum     sched.ProcSum
	members []int
	claims  int
}

// Arbiter is the shared cluster state of one sharded solve. It is NOT
// goroutine-safe by design: proposals are computed in parallel against a
// round-start state that nobody mutates, and commits run serially in
// cell-index order — the serialization IS the determinism argument, so a
// mutex would only hide a protocol bug. Reuse across solves via Reset.
type Arbiter struct {
	version uint64
	states  []serverState
	servers []cluster.Server // the snapshot's, read-only
	commits int
	comm    float64 // Σ bits/uplink over committed claims

	trial sched.ProcSum // scratch for the serial commit path only
}

// NewArbiter returns an arbiter over the snapshot's servers at its version.
func NewArbiter(snap *sched.Snapshot) *Arbiter {
	a := &Arbiter{}
	a.Reset(snap)
	return a
}

// Reset clears all commitments and re-bases the arbiter on a fresh
// snapshot, reusing the per-server state slices. Uplinks (for the committed
// communication latency) and speeds (for the Const2 budgets) are read from
// the snapshot's servers.
func (a *Arbiter) Reset(snap *sched.Snapshot) {
	n := snap.NumServers()
	if cap(a.states) < n {
		a.states = make([]serverState, n)
	}
	a.states = a.states[:n]
	for j := range a.states {
		a.states[j].gcd = sched.Rational{}
		a.states[j].sum.Reset()
		a.states[j].members = a.states[j].members[:0]
		a.states[j].claims = 0
	}
	a.servers = snap.Servers()
	a.version = snap.Version()
	a.commits = 0
	a.comm = 0
}

// Version returns the live state version: the snapshot version plus one
// per committed proposal. A proposer holding an older version may still
// commit — optimistically — as long as its claims re-validate exactly.
func (a *Arbiter) Version() uint64 { return a.version }

// Commits returns the number of committed proposals.
func (a *Arbiter) Commits() int { return a.commits }

// CommLatency returns the total transmission latency of the committed
// claims (Σ group bits / server uplink).
func (a *Arbiter) CommLatency() float64 { return a.comm }

// fits reports whether adding a group with the given period gcd and exact
// proc sum to server j keeps the union within Const2 at the server's speed:
// Σ proc over every stream on j, claimed and committed, at most the gcd of
// all their periods times speed_j. Since that gcd divides every member
// period, Const2 implies Const1 (Σ pᵢ/Tᵢ ≤ Σ pᵢ/gcd ≤ speed_j), so one exact
// check settles both. Proposers call it read-only during the propose phase,
// each with its own trial sum so the concurrent phase shares no mutable
// state; Commit re-runs it against the live state, which is what makes the
// concurrency optimistic.
func (a *Arbiter) fits(j int, gcd sched.Rational, sum, trial *sched.ProcSum) bool {
	st := &a.states[j]
	trial.Set(&st.sum)
	trial.AddSum(sum)
	return trial.Within(sched.RatGCD(st.gcd, gcd), a.servers[j].Speed())
}

// Commit validates every claim of the proposal against the LIVE state and,
// if all pass, applies them atomically and bumps the version. On any
// failure nothing is applied and the first conflicting server index is
// returned — the cell retries against a fresh snapshot. Claims sharing a
// server within one proposal are a protocol violation and rejected.
func (a *Arbiter) Commit(p *Proposal) (ok bool, conflict int) {
	for i := range p.Claims {
		c := &p.Claims[i]
		if c.Server < 0 || c.Server >= len(a.states) {
			return false, c.Server
		}
		for k := 0; k < i; k++ {
			if p.Claims[k].Server == c.Server {
				return false, c.Server
			}
		}
		if !a.fits(c.Server, c.GCD, &c.Sum, &a.trial) {
			return false, c.Server
		}
	}
	for i := range p.Claims {
		c := &p.Claims[i]
		st := &a.states[c.Server]
		st.gcd = sched.RatGCD(st.gcd, c.GCD)
		st.sum.AddSum(&c.Sum)
		st.members = append(st.members, c.Members...)
		st.claims++
		a.comm += c.Bits / a.servers[c.Server].Uplink
	}
	a.version++
	a.commits++
	return true, -1
}

// Plan assembles the committed state into a sched.Plan over nStreams
// streams: one merged group per occupied server in ascending server order
// (the deterministic merge order), members within a group in commit order.
// Unclaimed streams keep StreamServer −1; a complete solve leaves none.
func (a *Arbiter) Plan(nStreams int) sched.Plan {
	plan := sched.Plan{
		StreamServer: make([]int, nStreams),
		CommLatency:  a.comm,
	}
	for i := range plan.StreamServer {
		plan.StreamServer[i] = -1
	}
	for j := range a.states {
		st := &a.states[j]
		if len(st.members) == 0 {
			continue
		}
		plan.Groups = append(plan.Groups, append([]int(nil), st.members...))
		plan.GroupServer = append(plan.GroupServer, j)
		for _, si := range st.members {
			plan.StreamServer[si] = j
		}
	}
	return plan
}
