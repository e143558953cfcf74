//go:build !race

package ctlplane

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runtime"
)

// TestWireCodecWarmAllocFree pins the poll loop's codec at zero allocations
// once warm: encoding into a reused buffer, and parsing with a reused
// decoder into reused messages whose names repeat from the last message.
// (Race instrumentation allocates, hence the build tag.)
func TestWireCodecWarmAllocFree(t *testing.T) {
	resp := PollResponse{Epoch: 812, Version: 6497, Server: cluster.Server{Name: "edge-3", Uplink: 2.5e7, SpeedFactor: 1.25}, Horizon: 30}
	for i := 0; i < 8; i++ {
		resp.Specs = append(resp.Specs, cluster.StreamSpec{
			Name: fmt.Sprintf("MOT16-%02d", i+1), Period: 0.2, Offset: 0.0137 * float64(i),
			Proc: 0.0231 + 1e-4*float64(i), Bits: 187512.5 + float64(i),
		})
	}
	req := PollRequest{Server: 3, Incarnation: 2, WaitMS: 1000, Done: &Outcome{
		Epoch: 811, Version: 6489, Result: runtime.ServerEvalResult{LatSum: 41.83520937, Frames: 1200, MaxJitter: 1.3e-9},
	}}
	var (
		dec     decoder
		gotResp PollResponse
		gotReq  PollRequest
		buf     []byte
		err     error
	)
	exchange := func() {
		if buf, err = appendPollResponse(buf[:0], &resp); err == nil {
			err = dec.pollResponse(buf, &gotResp)
		}
		if err == nil {
			if buf, err = appendPollRequest(buf[:0], &req); err == nil {
				err = dec.pollRequest(buf, &gotReq)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Fatalf("warm encode+parse allocates %v times, want 0", allocs)
	}
}
