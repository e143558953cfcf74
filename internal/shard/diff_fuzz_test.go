package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/sched"
)

// FuzzShardedVsSerial differentially fuzzes the sharded planner against the
// serial Algorithm 1 solve (the FuzzReplanVsSchedule harness pattern):
//
//   - Shards=1 must be byte-identical to ScheduleMasked — it IS the serial
//     scheduler behind the planner interface.
//   - Shards=2..4 must place every stream on a healthy server and pass the
//     exact Const1/Const2 verifiers wherever the serial solve is feasible
//     (the serial fallback guarantees completeness), and two runs must
//     agree exactly — plans and stats.
//   - Unless the solve fell back, no server holds streams of two cells; a
//     fallen-back plan IS the serial ScheduleMasked plan.
//   - With uniform uplinks the plan's communication latency equals the
//     serial scheduler's (it is placement-independent), so slice plans are
//     decision-equivalent in the objective.
//
// Every server draws a SpeedFactor from {0, 0.5, 1, 2}, and non-uniform
// uplinks are occasionally zero, so both planners' speed and uplink masks
// are exercised.
func FuzzShardedVsSerial(f *testing.F) {
	f.Add(uint64(1), 6, 3, uint8(2), uint8(0))
	f.Add(uint64(42), 16, 5, uint8(3), uint8(5))
	f.Add(uint64(7), 1, 1, uint8(1), uint8(0))
	f.Add(uint64(99), 24, 4, uint8(4), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, m, n int, shardBits, downBits uint8) {
		m = 1 + abs(m)%24
		n = 1 + abs(n)%6
		shards := 1 + int(shardBits)%4
		fps := []int64{5, 6, 10, 15, 25, 30}
		rng := seed
		next := func(k int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(k))
		}
		raw := make([]sched.Stream, m)
		for i := range raw {
			p := sched.RatFromFPS(fps[next(len(fps))])
			raw[i] = sched.Stream{
				Video:  i,
				Period: p,
				Proc:   p.Float() * (0.05 + 0.6*float64(next(100))/100),
				Bits:   1e6 * (1 + float64(next(20))),
			}
		}
		streams := sched.SplitHighRate(raw)
		servers := make([]cluster.Server, n)
		uniform := next(2) == 0
		speeds := []float64{0, 0.5, 1, 2}
		for j := range servers {
			up := 20e6
			if !uniform {
				up = 10e6 * float64(1+next(5))
				if next(8) == 0 {
					up = 0
				}
			}
			servers[j] = cluster.Server{Name: fmt.Sprintf("s%d", j), Uplink: up, SpeedFactor: speeds[next(len(speeds))]}
		}
		var healthy []bool
		if downBits != 0 {
			healthy = make([]bool, n)
			alive := 0
			for j := range healthy {
				healthy[j] = downBits&(1<<j) == 0
				if healthy[j] {
					alive++
				}
			}
			if alive == 0 {
				healthy[next(n)] = true
			}
		}
		snap := sched.NewSnapshot(seed, servers, healthy)

		serial, serialErr := sched.ScheduleMasked(streams, servers, healthy)
		if serialErr != nil && !errors.Is(serialErr, sched.ErrInfeasible) {
			t.Fatalf("serial solve: non-infeasible error: %v", serialErr)
		}

		plan, st, err := Plan(context.Background(), streams, snap, Options{Shards: shards, Check: check.New(true, nil)})
		if err != nil {
			if !errors.Is(err, sched.ErrInfeasible) {
				t.Fatalf("shards=%d: non-infeasible error: %v", shards, err)
			}
			if serialErr == nil {
				t.Fatalf("shards=%d infeasible where serial succeeded", shards)
			}
			return
		}
		// The sharded plane may be feasible where the serial grouping is not
		// (each cell groups only its own streams), so err==nil with
		// serialErr!=nil is legitimate — feasibility is then proven below.

		for i, j := range plan.StreamServer {
			if j < 0 || j >= n {
				t.Fatalf("shards=%d: stream %d unplaced (server %d)", shards, i, j)
			}
			if healthy != nil && !healthy[j] {
				t.Fatalf("shards=%d: stream %d on down server %d", shards, i, j)
			}
		}
		if !sched.CheckConst1Servers(streams, plan.StreamServer, servers) {
			t.Fatalf("shards=%d: exact Const1 violated", shards)
		}
		if !sched.CheckConst2Servers(streams, plan.StreamServer, servers) {
			t.Fatalf("shards=%d: exact Const2 violated", shards)
		}

		if shards == 1 {
			if serialErr != nil {
				t.Fatal("Shards=1 succeeded where serial failed")
			}
			if !reflect.DeepEqual(plan, serial) {
				t.Fatalf("Shards=1 diverged from serial:\n%+v\n%+v", plan, serial)
			}
			return
		}

		again, st2, err := Plan(context.Background(), streams, snap, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: second run failed where the first succeeded: %v", shards, err)
		}
		if !reflect.DeepEqual(plan, again) || st != st2 {
			t.Fatalf("shards=%d: two runs diverge:\n%+v %+v\n%+v %+v", shards, plan, st, again, st2)
		}
		if st.FellBack {
			if !reflect.DeepEqual(plan, serial) {
				t.Fatalf("shards=%d: fallback diverged from serial:\n%+v\n%+v", shards, plan, serial)
			}
		} else if j := crossCellServer(streams, plan, shards); j >= 0 {
			t.Fatalf("shards=%d: server %d holds streams of two cells", shards, j)
		}

		if uniform && serialErr == nil && !st.FellBack {
			// Equal as exact sums; float accumulation order differs, so
			// compare to re-association tolerance.
			if d := math.Abs(plan.CommLatency - serial.CommLatency); d > 1e-9*math.Abs(serial.CommLatency) {
				t.Fatalf("shards=%d: uniform-uplink comm %v, serial %v", shards, plan.CommLatency, serial.CommLatency)
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
