package sched

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzScheduleMaskedVsSchedule differentially fuzzes the fault-path
// scheduler against the plain one: with every server healthy, ScheduleMasked
// must be *exactly* Schedule — same feasibility verdict and a byte-identical
// plan (groups, server maps, communication latency). The masked path
// matches over the list of healthy physical columns; with an all-true mask
// that list must be the identity, and any drift here means degraded-mode
// replans silently disagree with normal operation. The
// servers mix speeds and draw the occasional zero uplink, so the speed and
// uplink masks of the match are exercised on both paths.
func FuzzScheduleMaskedVsSchedule(f *testing.F) {
	f.Add(uint64(1), 4, 3)
	f.Add(uint64(42), 8, 5)
	f.Add(uint64(7), 1, 1)
	f.Add(uint64(1234), 6, 2)
	f.Fuzz(func(t *testing.T, seed uint64, m, n int) {
		m = 1 + abs(m)%8
		n = 1 + abs(n)%5
		next := lcgNext(seed)
		streams := fuzzStreams(m, next)
		servers := fuzzServers(n, next)
		healthy := make([]bool, n)
		for j := range healthy {
			healthy[j] = true
		}

		plain, errPlain := Schedule(streams, servers)
		masked, errMasked := ScheduleMasked(streams, servers, healthy)

		if (errPlain == nil) != (errMasked == nil) {
			t.Fatalf("feasibility diverged: Schedule err=%v, ScheduleMasked err=%v", errPlain, errMasked)
		}
		if errPlain != nil {
			if !errors.Is(errPlain, ErrInfeasible) || !errors.Is(errMasked, ErrInfeasible) {
				t.Fatalf("non-infeasible errors: %v / %v", errPlain, errMasked)
			}
			return
		}
		if !reflect.DeepEqual(plain.Groups, masked.Groups) {
			t.Fatalf("groups diverged:\n%v\n%v", plain.Groups, masked.Groups)
		}
		if !reflect.DeepEqual(plain.GroupServer, masked.GroupServer) {
			t.Fatalf("group→server maps diverged:\n%v\n%v", plain.GroupServer, masked.GroupServer)
		}
		if !reflect.DeepEqual(plain.StreamServer, masked.StreamServer) {
			t.Fatalf("stream→server maps diverged:\n%v\n%v", plain.StreamServer, masked.StreamServer)
		}
		if plain.CommLatency != masked.CommLatency {
			t.Fatalf("comm latency diverged: %v vs %v", plain.CommLatency, masked.CommLatency)
		}
		// And a nil mask is the documented alias for all-healthy.
		viaNil, err := ScheduleMasked(streams, servers, nil)
		if err != nil {
			t.Fatalf("nil-mask schedule failed where all-true succeeded: %v", err)
		}
		if !reflect.DeepEqual(viaNil.StreamServer, masked.StreamServer) {
			t.Fatalf("nil mask diverged from all-true mask:\n%v\n%v", viaNil.StreamServer, masked.StreamServer)
		}
	})
}
