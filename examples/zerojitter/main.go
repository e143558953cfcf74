// Zero-jitter scheduling demo: run Algorithm 1 on a mixed-rate workload,
// deploy it with Theorem 1's capture offsets (ZeroJitterDecision, the same
// deploy path every scheduler uses), verify Theorems 1–3 empirically
// with the discrete-event simulator, and contrast with an uncoordinated
// placement that jitters.
//
//	go run ./examples/zerojitter
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	sys := repro.NewSystemWithUplinks(5, []float64{10e6, 15e6, 20e6, 25e6}, 11)

	// Mixed frame rates with a rich divisibility structure.
	cfgs := []repro.Config{
		{Resolution: 1250, FPS: 5},
		{Resolution: 1000, FPS: 10},
		{Resolution: 1500, FPS: 10},
		{Resolution: 750, FPS: 15},
		{Resolution: 2000, FPS: 30}, // high-rate: will be split (s·p > 1)
	}
	streams := repro.BuildStreams(sys, cfgs)
	fmt.Printf("%d videos became %d periodic streams after high-rate splitting\n", len(cfgs), len(streams))

	plan, err := repro.ScheduleZeroJitter(streams, sys.Servers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nAlgorithm 1 grouping (per server):")
	for g, members := range plan.Groups {
		if len(members) == 0 {
			continue
		}
		fmt.Printf("  server %d:", plan.GroupServer[g])
		for _, si := range members {
			s := streams[si]
			fmt.Printf("  v%d.%d(T=%s, p=%.0fms)", s.Video, s.Sub, s.Period, s.Proc*1000)
		}
		fmt.Println()
	}
	fmt.Printf("total transmission latency (Hungarian-minimized): %.4f s\n", plan.CommLatency)

	// The cyclic execution timelines of Theorem 1, rendered per server.
	fmt.Println("\ncyclic timelines (one hyper-period per server, '#' = inference):")
	for _, tl := range plan.Timelines(streams) {
		fmt.Print(tl.Render(streams, 60))
		if ov := tl.Overlap(); ov != nil {
			log.Fatalf("timeline overlap: %+v", *ov)
		}
	}

	// Deploy with Theorem 1 offsets and verify in the simulator.
	good := repro.ZeroJitterDecision(cfgs, streams, plan, sys.Servers)
	fmt.Printf("\nmax jitter with Algorithm 1 + Theorem 1 offsets: %.3g s\n", repro.MaxJitter(sys, good))

	// The same assignment with uncoordinated (random) capture offsets and
	// no grouping discipline: pile streams on server 0.
	bad := repro.Decision{Configs: cfgs, Streams: streams, Assign: make([]int, len(streams))}
	bad.Offsets = repro.RandomOffsets(streams, repro.NewRNG(99))
	fmt.Printf("max jitter with uncoordinated single-server placement: %.3g s\n", repro.MaxJitter(sys, bad))
}
