package sched

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Slot is one execution interval on a server's cyclic timeline.
type Slot struct {
	Stream int     // index into the stream list
	Start  float64 // seconds from cycle start
	End    float64
}

// Timeline is one server's periodic schedule over a full hyper-cycle (the
// lcm of its streams' periods): the interval structure from the proof of
// Theorem 1, laid out explicitly.
type Timeline struct {
	Server int
	Cycle  float64 // hyper-period length in seconds
	Slots  []Slot
}

// Timelines expands the plan into per-server cyclic timelines with the
// Theorem 1 offsets applied. Servers with no streams are omitted.
func (p Plan) Timelines(streams []Stream) []Timeline {
	var out []Timeline
	for g, members := range p.Groups {
		if len(members) == 0 {
			continue
		}
		// Hyper-period = lcm of the member periods (exact, via rationals:
		// lcm(a/b, c/d) = lcm(a,c)/gcd(b,d); with unit numerators this is
		// 1/gcd of denominators… compute pairwise via float-safe ints).
		cycle := streams[members[0]].Period
		for _, si := range members[1:] {
			cycle = ratLCM(cycle, streams[si].Period)
		}
		tl := Timeline{Server: p.GroupServer[g], Cycle: cycle.Float()}
		offset := 0.0
		for _, si := range members {
			s := streams[si]
			reps := int64(cycle.Float()/s.Period.Float() + 0.5)
			for k := int64(0); k < reps; k++ {
				start := offset + float64(k)*s.Period.Float()
				tl.Slots = append(tl.Slots, Slot{Stream: si, Start: start, End: start + s.Proc})
			}
			offset += s.Proc
		}
		slices.SortFunc(tl.Slots, func(a, b Slot) int { return cmp.Compare(a.Start, b.Start) })
		out = append(out, tl)
	}
	return out
}

// ratLCM returns the least common multiple of two positive rationals:
// lcm(a/b, c/d) = lcm(a·d, c·b)/(b·d). It panics when a product leaves
// int64.
func ratLCM(x, y Rational) Rational {
	xd, ok1 := mul64(x.Num, y.Den)
	yd, ok2 := mul64(y.Num, x.Den)
	den, ok3 := mul64(x.Den, y.Den)
	if !ok1 || !ok2 || !ok3 {
		panic(fmt.Sprintf("sched: lcm of %v and %v leaves int64", x, y))
	}
	return Rational{lcm64(xd, yd), den}.reduce()
}

// Overlap returns the first pair of overlapping slots, or nil when the
// timeline is conflict-free — the empirical statement of Theorem 1.
func (t Timeline) Overlap() *[2]Slot {
	for i := 1; i < len(t.Slots); i++ {
		if t.Slots[i].Start < t.Slots[i-1].End-1e-12 {
			return &[2]Slot{t.Slots[i-1], t.Slots[i]}
		}
	}
	return nil
}

// Render draws the timeline as an ASCII chart (width characters per
// cycle), one row per stream: '#' marks execution, '.' idle.
func (t Timeline) Render(streams []Stream, width int) string {
	if width <= 0 {
		width = 60
	}
	// Collect the distinct streams on this timeline in slot order.
	var order []int
	seen := map[int]bool{}
	for _, s := range t.Slots {
		if !seen[s.Stream] {
			seen[s.Stream] = true
			order = append(order, s.Stream)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "server %d, cycle %.3fs\n", t.Server, t.Cycle)
	for _, si := range order {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range t.Slots {
			if s.Stream != si {
				continue
			}
			lo := int(s.Start / t.Cycle * float64(width))
			hi := int(s.End / t.Cycle * float64(width))
			if hi == lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&sb, "  v%d.%d |%s|\n", streams[si].Video, streams[si].Sub, row)
	}
	return sb.String()
}
