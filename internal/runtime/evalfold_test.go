package runtime

import (
	"context"
	"math"
	"testing"

	"repro/internal/eva"
	"repro/internal/objective"
)

// TestEvaluateAgreesWithEva pins the one place the controller's in-process
// evaluation and eva.Evaluate still differ. On a fault-free decision with
// nothing shed or stalled, evaluated on a drifted system, the controller's
// score must equal eva.Evaluate of the same decision re-costed by
// eva.Recost: the four configuration terms bit for bit (one
// System.ConfigOutcomes computes both), and latency up to summation order only. eva.Evaluate
// folds every frame into one running sum across servers; the controller
// adds per-server latency sums in server order. Two orderings of n positive
// terms differ by at most about 2n units of roundoff of the mean, so the
// tolerance is frames × ulp(latency). Unifying the two folds removes this
// slack.
func TestEvaluateAgreesWithEva(t *testing.T) {
	sys := testSys(7, 4)
	for j := range sys.Servers {
		sys.Servers[j].SpeedFactor = []float64{1, 1.5, 0.75, 2}[j]
	}
	c := controller(sys, zeroJitterScheduler(), 1)
	d, err := c.Sched.Decide(context.Background(), sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []int{0, 17, 60, 143} {
		drifted := c.driftedSystem(epoch)
		got, _ := c.evaluate(context.Background(), drifted, d, 2, nil, nil, epoch, false)

		deployed := d
		deployed.Streams = eva.Recost(nil, drifted, d.Streams, d.Configs)
		want := eva.Evaluate(drifted, deployed)
		for _, k := range []objective.Objective{objective.Accuracy, objective.Network, objective.Compute, objective.Energy} {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("epoch %d: %s = %v, eva.Evaluate %v", epoch, objective.Names[k], got[k], want[k])
			}
		}

		frames := 0
		for _, r := range eva.Simulate(drifted, deployed) {
			frames += r.FrameCount
		}
		lat, wantLat := got[objective.Latency], want[objective.Latency]
		ulp := math.Nextafter(wantLat, math.Inf(1)) - wantLat
		if frames == 0 || math.Abs(lat-wantLat) > float64(frames)*ulp {
			t.Fatalf("epoch %d: latency %v vs eva.Evaluate %v: %v apart, tolerance %d frames × ulp %v",
				epoch, lat, wantLat, lat-wantLat, frames, ulp)
		}
		t.Logf("epoch %d: latency differs by %.0f ulp over %d frames", epoch, math.Abs(lat-wantLat)/ulp, frames)
	}
}
