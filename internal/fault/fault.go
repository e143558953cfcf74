// Package fault is a deterministic fault-injection subsystem for the
// online runtime: scenario scripts crash and recover servers, stall
// cameras, and degrade per-server uplink bandwidth at epoch granularity.
// Scenarios are plain data (JSON-serializable) and their application is a
// pure function of (scenario, epoch), so a faulted run is exactly as
// reproducible as a healthy one — the property the failover-determinism
// tests rely on.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"sort"
)

// Action is one kind of injected fault or recovery.
type Action string

// The supported fault actions. Targets are server indices for the
// server/link actions and camera (video) indices for the stall actions.
const (
	ServerDown   Action = "server_down"
	ServerUp     Action = "server_up"
	CameraStall  Action = "camera_stall"
	CameraResume Action = "camera_resume"
	LinkDegrade  Action = "link_degrade" // scale the target's uplink by Factor
	LinkRestore  Action = "link_restore" // reset the target's uplink to nominal
)

// ActionCode maps an action to the numeric code telemetry events carry
// (obs event fields are numeric). Unknown actions map to 0.
func ActionCode(a Action) float64 {
	switch a {
	case ServerDown:
		return 1
	case ServerUp:
		return 2
	case CameraStall:
		return 3
	case CameraResume:
		return 4
	case LinkDegrade:
		return 5
	case LinkRestore:
		return 6
	}
	return 0
}

// Event is one scripted fault at epoch granularity.
type Event struct {
	Epoch  int     `json:"epoch"`
	Action Action  `json:"action"`
	Target int     `json:"target"`
	Factor float64 `json:"factor,omitempty"` // LinkDegrade: new uplink scale in (0, 1]
}

// Scenario is a named script of fault events.
type Scenario struct {
	Name   string  `json:"name"`
	Events []Event `json:"events"`
}

// Validate checks every event against the system shape: targets in range,
// known actions, non-negative epochs, and degrade factors in (0, 1].
func (s *Scenario) Validate(servers, cameras int) error {
	for i, e := range s.Events {
		if e.Epoch < 0 {
			return fmt.Errorf("fault: event %d: negative epoch %d", i, e.Epoch)
		}
		switch e.Action {
		case ServerDown, ServerUp, LinkDegrade, LinkRestore:
			if e.Target < 0 || e.Target >= servers {
				return fmt.Errorf("fault: event %d: server target %d out of range [0,%d)", i, e.Target, servers)
			}
		case CameraStall, CameraResume:
			if e.Target < 0 || e.Target >= cameras {
				return fmt.Errorf("fault: event %d: camera target %d out of range [0,%d)", i, e.Target, cameras)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown action %q", i, e.Action)
		}
		if e.Action == LinkDegrade && (e.Factor <= 0 || e.Factor > 1) {
			return fmt.Errorf("fault: event %d: link_degrade factor %v outside (0, 1]", i, e.Factor)
		}
	}
	return nil
}

// Load parses a scenario from JSON. It rejects trailing data after the
// scenario object — the chaos harness feeds scripts from the command line
// and CI, where a concatenated or truncated file must fail loudly, not
// load its first half.
func Load(r io.Reader) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parsing scenario: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fault: parsing scenario: trailing data after scenario object")
	}
	return &s, nil
}

// Split partitions a scenario into the part the distributed control plane
// must act out as real process failures (server crash/recovery → hollow
// agents killed and restarted, so the controller has to *infer* them from
// missed heartbeats) and the part that stays environmental (camera stalls,
// link degradation — observable state the controller merges from an
// injector as before). Event order within each half is preserved.
func (s *Scenario) Split() (liveness, env *Scenario) {
	liveness = &Scenario{Name: s.Name + "-liveness"}
	env = &Scenario{Name: s.Name + "-env"}
	for _, e := range s.Events {
		switch e.Action {
		case ServerDown, ServerUp:
			liveness.Events = append(liveness.Events, e)
		default:
			env.Events = append(env.Events, e)
		}
	}
	return liveness, env
}

// LoadFile parses a scenario from a JSON file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Save writes the scenario as indented JSON.
func (s *Scenario) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// GenOptions tunes the deterministic scenario generator.
type GenOptions struct {
	Epochs  int
	Servers int
	Cameras int
	Seed    uint64
	// CrashProb is the per-server per-epoch probability of a crash;
	// StallProb and DegradeProb are the camera-stall and link-degrade
	// analogues. Zero means the fault never happens.
	CrashProb   float64
	StallProb   float64
	DegradeProb float64
	// MeanOutage is the expected outage length in epochs (default 2).
	MeanOutage int
}

func (o GenOptions) withDefaults() GenOptions {
	if o.MeanOutage <= 0 {
		o.MeanOutage = 2
	}
	return o
}

// Generate builds a seed-driven random scenario: servers crash and recover
// after geometric outages, cameras stall, links degrade to a random
// fraction of nominal. It never takes down the last healthy server, so a
// generated scenario always leaves some capacity. The output depends only
// on the options, never on call order or wall clock.
func Generate(o GenOptions) *Scenario {
	o = o.withDefaults()
	rng := rand.New(rand.NewPCG(o.Seed, 0xFA017))
	sc := &Scenario{Name: fmt.Sprintf("generated-%d", o.Seed)}
	// upAt[j] is the first epoch server j is up again (0 = up now); the
	// camera/link analogues likewise. A component can only fail once its
	// previous outage has ended, so generated events never overlap.
	upAt := make([]int, o.Servers)
	resumeAt := make([]int, o.Cameras)
	restoreAt := make([]int, o.Servers)
	outage := func() int { return 1 + rng.IntN(2*o.MeanOutage-1) }
	downAt := func(epoch int) int {
		n := 0
		for _, u := range upAt {
			if u > epoch {
				n++
			}
		}
		return n
	}
	for epoch := 0; epoch < o.Epochs; epoch++ {
		for j := 0; j < o.Servers; j++ {
			if upAt[j] > epoch || downAt(epoch) >= o.Servers-1 {
				continue
			}
			if rng.Float64() < o.CrashProb {
				sc.Events = append(sc.Events, Event{Epoch: epoch, Action: ServerDown, Target: j})
				up := epoch + outage()
				if up < o.Epochs {
					sc.Events = append(sc.Events, Event{Epoch: up, Action: ServerUp, Target: j})
					upAt[j] = up
				} else {
					upAt[j] = o.Epochs // down for the rest of the run
				}
			}
		}
		for i := 0; i < o.Cameras; i++ {
			if resumeAt[i] <= epoch && rng.Float64() < o.StallProb {
				sc.Events = append(sc.Events, Event{Epoch: epoch, Action: CameraStall, Target: i})
				if up := epoch + outage(); up < o.Epochs {
					sc.Events = append(sc.Events, Event{Epoch: up, Action: CameraResume, Target: i})
					resumeAt[i] = up
				} else {
					resumeAt[i] = o.Epochs
				}
			}
		}
		for j := 0; j < o.Servers; j++ {
			if restoreAt[j] <= epoch && rng.Float64() < o.DegradeProb {
				factor := 0.2 + 0.6*rng.Float64()
				sc.Events = append(sc.Events, Event{Epoch: epoch, Action: LinkDegrade, Target: j, Factor: factor})
				if up := epoch + outage(); up < o.Epochs {
					sc.Events = append(sc.Events, Event{Epoch: up, Action: LinkRestore, Target: j})
					restoreAt[j] = up
				} else {
					restoreAt[j] = o.Epochs
				}
			}
		}
	}
	sortEvents(sc.Events)
	return sc
}

func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Epoch < evs[b].Epoch })
}

// ChurnOp is one scripted stream arrival or departure at epoch granularity.
// Like fault events, churn ops are plain data: the runtime layer decides
// what a named stream's content looks like, so the schedule itself stays a
// pure function of its options.
type ChurnOp struct {
	Epoch int    `json:"epoch"`
	Add   bool   `json:"add"` // false = deregister Name
	Name  string `json:"name"`
}

// ChurnScript is a named deterministic schedule of stream churn.
type ChurnScript struct {
	Name string    `json:"name"`
	Ops  []ChurnOp `json:"ops"`
}

// ChurnOptions tunes GenerateChurn.
type ChurnOptions struct {
	Epochs int
	// Initial is the set of stream names live at epoch 0 — departures may
	// target them; the generator never re-adds a departed name.
	Initial []string
	// Rate is the mean churn events per epoch at the diurnal peak (default
	// 0.5). Double it for a 2×-churn stress schedule.
	Rate float64
	// PeriodEpochs is the diurnal period (default 1440: a 24h day at
	// one-minute epochs). Arrivals dominate through the rising half of the
	// cycle and departures through the falling half, so the live population
	// swells by day and thins by night.
	PeriodEpochs int
	// MinStreams/MaxStreams bound the live population (defaults: 2 and
	// 2×len(Initial), at least 4).
	MinStreams int
	MaxStreams int
	Seed       uint64
}

func (o ChurnOptions) withDefaults() ChurnOptions {
	if o.Rate == 0 {
		o.Rate = 0.5
	}
	if o.PeriodEpochs <= 0 {
		o.PeriodEpochs = 1440
	}
	if o.MinStreams <= 0 {
		o.MinStreams = 2
	}
	if o.MaxStreams <= 0 {
		o.MaxStreams = 2 * len(o.Initial)
		if o.MaxStreams < 4 {
			o.MaxStreams = 4
		}
	}
	return o
}

// GenerateChurn builds a deterministic diurnal churn schedule: the event
// intensity follows a raised sinusoid over PeriodEpochs, and each event is
// an arrival or departure biased by the cycle's phase. Arrivals mint fresh
// "cam-<serial>" names; departures pick uniformly among the live set. The
// population never leaves [MinStreams, MaxStreams], and the output depends
// only on the options — never on call order or wall clock.
func GenerateChurn(o ChurnOptions) *ChurnScript {
	o = o.withDefaults()
	rng := rand.New(rand.NewPCG(o.Seed, 0xC4012))
	sc := &ChurnScript{Name: fmt.Sprintf("churn-%d", o.Seed)}
	live := append([]string(nil), o.Initial...)
	serial := 0
	for epoch := 0; epoch < o.Epochs; epoch++ {
		phase := 2 * math.Pi * float64(epoch) / float64(o.PeriodEpochs)
		intensity := o.Rate * (0.5 + 0.5*math.Sin(phase))
		events := int(intensity)
		if rng.Float64() < intensity-float64(events) {
			events++
		}
		for k := 0; k < events; k++ {
			// Rising half of the day: mostly arrivals; falling half: mostly
			// departures. The population bounds override the bias.
			add := rng.Float64() < 0.5+0.4*math.Cos(phase)
			if len(live) <= o.MinStreams {
				add = true
			} else if len(live) >= o.MaxStreams {
				add = false
			}
			if add {
				serial++
				name := fmt.Sprintf("cam-%04d", serial)
				sc.Ops = append(sc.Ops, ChurnOp{Epoch: epoch, Add: true, Name: name})
				live = append(live, name)
			} else {
				i := rng.IntN(len(live))
				sc.Ops = append(sc.Ops, ChurnOp{Epoch: epoch, Add: false, Name: live[i]})
				live = append(live[:i], live[i+1:]...)
			}
		}
	}
	return sc
}

// State is the injector's view of the cluster at one epoch.
type State struct {
	Down      []bool    // per server
	Stalled   []bool    // per camera
	LinkScale []float64 // per server, 1 = nominal uplink
}

// NumHealthy returns the number of servers currently up.
func (st State) NumHealthy() int {
	n := 0
	for _, d := range st.Down {
		if !d {
			n++
		}
	}
	return n
}

// Healthy returns the per-server liveness mask (true = up), or nil when
// the state is empty (no injector).
func (st State) Healthy() []bool {
	if st.Down == nil {
		return nil
	}
	h := make([]bool, len(st.Down))
	for j, d := range st.Down {
		h[j] = !d
	}
	return h
}

// StalledCameras returns the sorted indices of stalled cameras.
func (st State) StalledCameras() []int {
	var out []int
	for i, s := range st.Stalled {
		if s {
			out = append(out, i)
		}
	}
	return out
}

func (st State) clone() State {
	out := State{}
	if st.Down != nil {
		out.Down = append([]bool(nil), st.Down...)
	}
	if st.Stalled != nil {
		out.Stalled = append([]bool(nil), st.Stalled...)
	}
	if st.LinkScale != nil {
		out.LinkScale = append([]float64(nil), st.LinkScale...)
	}
	return out
}

// Injector applies a scenario's events epoch by epoch and tracks the
// resulting cluster state. All methods are safe on a nil receiver (the
// no-faults configuration), returning empty results.
type Injector struct {
	events []Event // sorted by epoch (stable)
	next   int
	st     State
}

// NewInjector validates the scenario against the system shape and returns
// an injector positioned before epoch 0.
func NewInjector(sc *Scenario, servers, cameras int) (*Injector, error) {
	if err := sc.Validate(servers, cameras); err != nil {
		return nil, err
	}
	events := append([]Event(nil), sc.Events...)
	sortEvents(events)
	in := &Injector{
		events: events,
		st: State{
			Down:      make([]bool, servers),
			Stalled:   make([]bool, cameras),
			LinkScale: make([]float64, servers),
		},
	}
	for j := range in.st.LinkScale {
		in.st.LinkScale[j] = 1
	}
	return in, nil
}

// Advance applies every not-yet-applied event scheduled at or before the
// given epoch and returns those applied. Call it once per epoch with
// non-decreasing epochs. Nil-safe (returns nil).
func (in *Injector) Advance(epoch int) []Event {
	if in == nil {
		return nil
	}
	var applied []Event
	for in.next < len(in.events) && in.events[in.next].Epoch <= epoch {
		e := in.events[in.next]
		in.next++
		in.apply(e)
		applied = append(applied, e)
	}
	return applied
}

func (in *Injector) apply(e Event) {
	switch e.Action {
	case ServerDown:
		in.st.Down[e.Target] = true
	case ServerUp:
		in.st.Down[e.Target] = false
	case CameraStall:
		in.st.Stalled[e.Target] = true
	case CameraResume:
		in.st.Stalled[e.Target] = false
	case LinkDegrade:
		in.st.LinkScale[e.Target] = e.Factor
	case LinkRestore:
		in.st.LinkScale[e.Target] = 1
	}
}

// State returns a copy of the current cluster state. Nil-safe (returns the
// zero State, which reads as fully healthy).
func (in *Injector) State() State {
	if in == nil {
		return State{}
	}
	return in.st.clone()
}
