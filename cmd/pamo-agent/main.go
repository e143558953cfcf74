// Command pamo-agent runs one or more edge-server agents against a
// pamo-controller daemon. Each agent registers its server index, long-polls
// for evaluation work, runs the discrete-event simulation locally, and
// reports each fenced result on its next poll; carrying work is its
// heartbeat, so an agent that dies is inferred down by the controller
// without any deregistration.
//
// One process can host a contiguous block of agents (-server, -count), so
// a small fleet needs no supervisor:
//
//	pamo-agent -controller http://127.0.0.1:7070 -server 0 -count 4
//	pamo-agent -controller http://127.0.0.1:7070 -server 2 -heartbeat 500ms
//
// The process exits 0 when the controller announces shutdown, and retries
// transient wire errors with capped, seed-jittered exponential backoff.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/obs"
)

func main() {
	controller := flag.String("controller", "http://127.0.0.1:7070", "base URL of the pamo-controller wire API")
	server := flag.Int("server", 0, "first server index this process serves")
	count := flag.Int("count", 1, "number of consecutive server indices to host")
	name := flag.String("name", "", "agent name prefix (default: host-style agent-<index>)")
	heartbeat := flag.Duration("heartbeat", 0, "explicit telemetry heartbeat period (0 = work-carried beats only)")
	pollWait := flag.Duration("poll-wait", time.Second, "long-poll park time per work request")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request wire timeout")
	retries := flag.Int("retries", 8, "transient-error retries per request")
	giveUp := flag.Duration("give-up", 30*time.Second, "exit after this long without a reachable controller (0 = retry forever)")
	seed := flag.Uint64("seed", 0, "backoff jitter seed (0 = derive from first server index)")
	flag.Parse()

	if *count < 1 {
		fmt.Fprintln(os.Stderr, "-count must be >= 1")
		os.Exit(2)
	}
	prefix := *name
	if prefix == "" {
		prefix = "agent"
	}
	baseSeed := *seed
	if baseSeed == 0 {
		baseSeed = uint64(*server) + 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rec := obs.NewRecorder(nil)
	defer rec.Close()

	var wg sync.WaitGroup
	errs := make(chan error, *count)
	for i := 0; i < *count; i++ {
		idx := *server + i
		agent := &ctlplane.Agent{
			Server: idx,
			Name:   fmt.Sprintf("%s-%d", prefix, idx),
			Client: &ctlplane.Client{
				BaseURL: *controller,
				Timeout: *timeout,
				Retries: *retries,
				Backoff: ctlplane.Backoff{Seed: baseSeed + uint64(i)},
			},
			PollWaitMS:     int(*pollWait / time.Millisecond),
			HeartbeatEvery: *heartbeat,
			GiveUpAfter:    *giveUp,
			Obs:            rec,
			OnRegistered: func(inc uint64) {
				fmt.Fprintf(os.Stderr, "server %d registered (incarnation %d)\n", idx, inc)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := agent.Run(ctx); err != nil && ctx.Err() == nil {
				errs <- fmt.Errorf("server %d: %w", idx, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := false
	for err := range errs {
		failed = true
		fmt.Fprintln(os.Stderr, err)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "shutdown")
}
