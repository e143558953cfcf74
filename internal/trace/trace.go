// Package trace records and replays profiling traces. The paper's
// evaluation "use[s] trace data to emulate more than four servers"; this
// package plays that role: a trace captures the system description and a
// set of profiling measurements, serializes to JSON, and replays them
// deterministically through the videosim.Measurer interface so experiments
// can run against a fixed workload instead of the live simulator.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/objective"
	"repro/internal/videosim"
)

// ClipRecord captures one clip's identity and per-clip factors.
type ClipRecord struct {
	Name       string  `json:"name"`
	AccBase    float64 `json:"acc_base"`
	AccFactor  float64 `json:"acc_factor"`
	ComputeFac float64 `json:"compute_fac"`
	BitFac     float64 `json:"bit_fac"`
	EnergyFac  float64 `json:"energy_fac"`
}

// Sample is one recorded profiling measurement.
type Sample struct {
	Clip       int                  `json:"clip"`
	Resolution float64              `json:"resolution"`
	FPS        float64              `json:"fps"`
	M          videosim.Measurement `json:"measurement"`
}

// Trace is a recorded workload: the system and its profiling samples.
type Trace struct {
	Version int          `json:"version"`
	Clips   []ClipRecord `json:"clips"`
	Uplinks []float64    `json:"uplinks_bps"`
	Samples []Sample     `json:"samples"`
}

// CurrentVersion is the trace format version this package writes.
const CurrentVersion = 1

// Record profiles every clip of the system at every grid configuration,
// taking perCfg measurements each, and returns the trace.
func Record(sys *objective.System, prof videosim.Measurer, perCfg int) *Trace {
	if perCfg <= 0 {
		perCfg = 1
	}
	t := &Trace{Version: CurrentVersion}
	for _, c := range sys.Clips {
		t.Clips = append(t.Clips, ClipRecord{
			Name: c.Name, AccBase: c.AccBase, AccFactor: c.AccFactor,
			ComputeFac: c.ComputeFac, BitFac: c.BitFac, EnergyFac: c.EnergyFac,
		})
	}
	for _, s := range sys.Servers {
		t.Uplinks = append(t.Uplinks, s.Uplink)
	}
	for ci, clip := range sys.Clips {
		for _, r := range videosim.Resolutions {
			for _, fps := range videosim.FrameRates {
				cfg := videosim.Config{Resolution: r, FPS: fps}
				for k := 0; k < perCfg; k++ {
					t.Samples = append(t.Samples, Sample{
						Clip: ci, Resolution: r, FPS: fps,
						M: prof.Measure(clip, cfg),
					})
				}
			}
		}
	}
	return t
}

// Save writes the trace as JSON.
func (t *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// Load reads a JSON trace and validates it.
func Load(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if t.Version != CurrentVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", t.Version)
	}
	for i, s := range t.Samples {
		if s.Clip < 0 || s.Clip >= len(t.Clips) {
			return nil, fmt.Errorf("trace: sample %d references clip %d of %d", i, s.Clip, len(t.Clips))
		}
	}
	return &t, nil
}

// System reconstructs the recorded system (clips with the recorded
// factors, servers with the recorded uplinks).
func (t *Trace) System() *objective.System {
	clips := make([]*videosim.Clip, len(t.Clips))
	for i, c := range t.Clips {
		clips[i] = &videosim.Clip{
			Name: c.Name, AccBase: c.AccBase, AccFactor: c.AccFactor,
			ComputeFac: c.ComputeFac, BitFac: c.BitFac, EnergyFac: c.EnergyFac,
		}
	}
	servers := make([]cluster.Server, len(t.Uplinks))
	for j, u := range t.Uplinks {
		servers[j] = cluster.Server{Name: "edge", Uplink: u}
	}
	return &objective.System{Clips: clips, Servers: servers}
}

// ErrNoSample is returned when the trace has no measurement for the
// requested (clip, configuration).
var ErrNoSample = errors.New("trace: no recorded sample for configuration")

// Replayer serves recorded measurements through the videosim.Measurer
// interface. Repeated queries for the same configuration cycle through the
// recorded repetitions, reproducing measurement-to-measurement variation
// deterministically.
type Replayer struct {
	byKey  map[string][]videosim.Measurement
	cursor map[string]int
	names  map[string]int // clip name -> index
}

// NewReplayer indexes a trace for replay.
func NewReplayer(t *Trace) *Replayer {
	r := &Replayer{
		byKey:  map[string][]videosim.Measurement{},
		cursor: map[string]int{},
		names:  map[string]int{},
	}
	for i, c := range t.Clips {
		r.names[c.Name] = i
	}
	for _, s := range t.Samples {
		k := key(s.Clip, s.Resolution, s.FPS)
		r.byKey[k] = append(r.byKey[k], s.M)
	}
	return r
}

func key(clip int, res, fps float64) string {
	return fmt.Sprintf("%d|%g|%g", clip, res, fps)
}

// Measure implements videosim.Measurer by replaying the recorded samples
// for the clip (matched by name) at cfg. It panics with ErrNoSample
// wrapped in the message when the configuration was never recorded —
// replay is only valid over the recorded grid.
func (r *Replayer) Measure(c *videosim.Clip, cfg videosim.Config) videosim.Measurement {
	ci, ok := r.names[c.Name]
	if !ok {
		panic(fmt.Sprintf("%v: unknown clip %q", ErrNoSample, c.Name))
	}
	k := key(ci, cfg.Resolution, cfg.FPS)
	samples := r.byKey[k]
	if len(samples) == 0 {
		panic(fmt.Sprintf("%v: clip %q at %+v", ErrNoSample, c.Name, cfg))
	}
	i := r.cursor[k] % len(samples)
	r.cursor[k] = i + 1
	return samples[i]
}
