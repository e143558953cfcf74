// Command pamo-trace reads and writes the files the other commands produce
// and consume: profiling traces and JSONL telemetry streams.
//
//	pamo-trace -record -videos 8 -servers 5 -per-cfg 3 -o trace.json
//	pamo-trace -summary -i trace.json
//	pamo-trace -events-summary -events run.jsonl
//	pamo-trace -perfetto run.trace.json -events run.jsonl
//
// A recorded trace drives pamo-sched -trace; pamo-sched and
// pamo-controller write telemetry with -events. -events-summary aggregates
// such a stream into a per-span latency table plus, for a controller run,
// the per-epoch benefit-attribution ledger table. -perfetto converts the
// stream's span tree to Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/videosim"
)

func main() {
	record := flag.Bool("record", false, "record a new trace")
	summary := flag.Bool("summary", false, "print a trace summary")
	eventsSummary := flag.Bool("events-summary", false, "aggregate a JSONL event file (-events) into span and ledger tables")
	videos := flag.Int("videos", 8, "videos to record")
	servers := flag.Int("servers", 5, "servers to record")
	perCfg := flag.Int("per-cfg", 3, "measurements per configuration")
	seed := flag.Uint64("seed", 2024, "seed")
	in := flag.String("i", "trace.json", "input trace path")
	out := flag.String("o", "trace.json", "output trace path")
	events := flag.String("events", "", "JSONL telemetry path read by -events-summary and -perfetto")
	perfetto := flag.String("perfetto", "", "convert the -events stream's span tree to Chrome trace-event JSON at this path")
	flag.Parse()

	switch {
	case *record:
		sys := exp.NewSystem(*videos, *servers, *seed)
		prof := videosim.NewProfiler(0.02, stats.NewRNG(*seed+1))
		tr := trace.Record(sys, prof, *perCfg)
		f, err := os.Create(*out)
		fatalIf(err)
		defer f.Close()
		fatalIf(tr.Save(f))
		fmt.Printf("recorded %d samples (%d clips × %d configs × %d reps) to %s\n",
			len(tr.Samples), len(tr.Clips),
			len(videosim.Resolutions)*len(videosim.FrameRates), *perCfg, *out)

	case *summary:
		f, err := os.Open(*in)
		fatalIf(err)
		defer f.Close()
		tr, err := trace.Load(f)
		fatalIf(err)
		fmt.Printf("trace v%d: %d clips, %d servers, %d samples\n",
			tr.Version, len(tr.Clips), len(tr.Uplinks), len(tr.Samples))
		for _, c := range tr.Clips {
			fmt.Printf("  %-10s acc=%.2f compute=%.2f bits=%.2f energy=%.2f\n",
				c.Name, c.AccFactor, c.ComputeFac, c.BitFac, c.EnergyFac)
		}

	case *eventsSummary:
		evs := readEvents(*events, "-events-summary")
		fmt.Printf("%d events in %s\n", len(evs), *events)
		obs.WriteSpanTable(os.Stdout, obs.SummarizeSpans(evs))
		var leds []obs.EpochLedger
		for _, ev := range evs {
			if ev.Kind == "ledger" && ev.Ledger != nil {
				leds = append(leds, *ev.Ledger)
			}
		}
		if len(leds) > 0 {
			fmt.Println("\nbenefit attribution:")
			obs.WriteLedgerTable(os.Stdout, leds)
		}

	case *perfetto != "":
		evs := readEvents(*events, "-perfetto")
		f, err := os.Create(*perfetto)
		fatalIf(err)
		fatalIf(obs.WritePerfetto(f, evs))
		fatalIf(f.Close())
		fmt.Fprintf(os.Stderr, "perfetto trace: %s (%d events)\n", *perfetto, len(evs))

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// readEvents parses the JSONL stream at path; mode names the flag that
// needs it in the error for a missing -events.
func readEvents(path, mode string) []obs.Event {
	if path == "" {
		fatalIf(fmt.Errorf("%s requires -events <file.jsonl>", mode))
	}
	f, err := os.Open(path)
	fatalIf(err)
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	fatalIf(err)
	return evs
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
