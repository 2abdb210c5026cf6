package cn

// ChurnSim is the one congestion engine: the mesh, the demand model and a
// scheduler discipline, held open as a stateful machine so an external event
// stream can fail and repair members between epochs. Simulate (E3),
// SimulateTopologyAware (cn-topology) and the timeline's CN machine (E18,
// E21) all step it and differ only in how they reduce each epoch. The demand
// process draws one sample per member per epoch regardless of who is up —
// churn masks demand, it never perturbs the RNG — so two replays of the same
// seed stay identical even when their failure schedules differ only in
// timing, and an empty stream reproduces the all-up trajectory exactly.

import (
	"fmt"
	"math"

	"repro/internal/experiment"
	"repro/internal/rng"
)

// ChurnConfig parameterizes a congestion run: the community and its seed.
// The epoch count is the caller's (Simulate's argument, or the replaying
// stream's horizon).
type ChurnConfig struct {
	Members   int
	HeavyFrac float64
	// CapacityFactor scales the gateway capacity relative to the mean
	// offered airtime load of the full (all-up) membership; < 1 means
	// chronic congestion.
	CapacityFactor float64
	Seed           uint64
}

// ChurnSim is the live state: mesh, demand model and its RNG stream, gateway
// capacity, scheduler, and the up/down member set. Not safe for concurrent
// use.
type ChurnSim struct {
	net       *Network
	model     DemandModel
	demandRNG *rng.Rand
	capacity  float64
	sched     Scheduler
	up        []bool
	nUp       int
	// scale multiplies every member's demand draw (1 = baseline). It scales
	// the draw after the RNG consumes it, so changing the scale mid-run never
	// perturbs the demand process itself — the same churn-independence
	// guarantee SetUp keeps.
	scale float64
	// air is step's airtime buffer, reused every epoch; the schedulers keep
	// no reference to the demand they are handed.
	air []float64
}

// meshRadius is the radio range of every congestion run's mesh.
const meshRadius = 0.35

// NewChurnSim checks cfg, builds the mesh from the seed's first split and the
// demand stream from its second, sizes the gateway capacity as
// CapacityFactor times the mean offered airtime load of the full membership,
// resets sched and starts every member up. Member i maps to mesh node i+1
// (node 0 is the gateway). A HeavyFrac outside [0, 1] or a CapacityFactor
// that is not finite and positive is an experiment.ErrBadParam.
func NewChurnSim(cfg ChurnConfig, sched Scheduler) (*ChurnSim, error) {
	if cfg.Members < 2 {
		return nil, fmt.Errorf("cn: need at least 2 members, got %d", cfg.Members)
	}
	if !(cfg.HeavyFrac >= 0 && cfg.HeavyFrac <= 1) {
		return nil, fmt.Errorf("%w %q = %v, want in [0, 1]", experiment.ErrBadParam, "heavy-frac", cfg.HeavyFrac)
	}
	if !(cfg.CapacityFactor > 0) || math.IsInf(cfg.CapacityFactor, 1) {
		return nil, fmt.Errorf("%w %q = %v, want finite and > 0", experiment.ErrBadParam, "capacity-factor", cfg.CapacityFactor)
	}
	r := rng.New(cfg.Seed)
	net, err := BuildMesh(cfg.Members+1, meshRadius, r.Split())
	if err != nil {
		return nil, err
	}
	model := NewDemandModel(cfg.Members, cfg.HeavyFrac)
	meanBytes := 0.0
	for _, k := range model.Kinds {
		if k == HeavyUser {
			meanBytes += model.HeavyBase
		} else {
			meanBytes += model.LightBase * (1 + model.BurstProb*(model.BurstFactor-1))
		}
	}

	sched.Reset(cfg.Members)
	up := make([]bool, cfg.Members)
	for i := range up {
		up[i] = true
	}
	return &ChurnSim{
		net:       net,
		model:     model,
		demandRNG: r.Split(),
		capacity:  cfg.CapacityFactor * meanBytes * net.MeanPathETX(),
		sched:     sched,
		up:        up,
		nUp:       cfg.Members,
		scale:     1,
		air:       make([]float64, cfg.Members),
	}, nil
}

// MaxDemandScale is the largest demand multiplier SetDemandScale accepts:
// enough for any surge story, small enough that scaled demand stays far
// from float trouble.
const MaxDemandScale = 64

// SetDemandScale sets the absolute demand multiplier applied to every
// member's draw from now on. Idempotent — re-asserting the current scale is
// a no-op — so an external controller (a timeline cascade) can set it every
// epoch. The factor must be finite and in (0, MaxDemandScale].
func (s *ChurnSim) SetDemandScale(f float64) error {
	if !(f > 0) || f > MaxDemandScale {
		return fmt.Errorf("cn: demand scale %v outside (0, %d]", f, MaxDemandScale)
	}
	s.scale = f
	return nil
}

// DemandScale returns the current demand multiplier.
func (s *ChurnSim) DemandScale() float64 { return s.scale }

// SetUp marks member m up or down. It is strict in both directions — failing
// a down member or repairing an up one is an error, never a no-op — so every
// churn event in a stream is observable and invertible.
func (s *ChurnSim) SetUp(m int, up bool) error {
	if m < 0 || m >= len(s.up) {
		return fmt.Errorf("cn: member %d outside [0, %d)", m, len(s.up))
	}
	if s.up[m] == up {
		state := "down"
		if up {
			state = "up"
		}
		return fmt.Errorf("cn: member %d already %s", m, state)
	}
	s.up[m] = up
	if up {
		s.nUp++
	} else {
		s.nUp--
	}
	return nil
}

// step runs one epoch: it draws a demand sample for every member (down
// members' draws are discarded), turns the up members' scaled bytes into
// airtime and runs the scheduler over it. air is the sim's own buffer, valid
// until the next step; alloc is the scheduler's fresh allocation, burst marks
// the light users who burst, and offered is the summed airtime.
func (s *ChurnSim) step() (air, alloc []float64, burst []bool, offered float64) {
	bytesDemand, burst := s.model.Sample(s.demandRNG)
	air = s.air
	clear(air)
	for i, b := range bytesDemand {
		if s.up[i] {
			air[i] = b * s.scale * s.net.PathETX[i+1]
			offered += air[i]
		}
	}
	return air, s.sched.Allocate(air, s.capacity), burst, offered
}

// EpochStats summarizes one epoch of the churn-aware run. Offered and Served
// are airtime (ETX-weighted bytes) over the up members only.
type EpochStats struct {
	Up      int
	Offered float64
	Served  float64
	// LightSat is the mean granted/demanded over up light users this epoch.
	LightSat float64
}

// Epoch steps the sim one epoch and returns its summary.
func (s *ChurnSim) Epoch() EpochStats {
	air, alloc, _, offered := s.step()
	served := 0.0
	lightSum, lightN := 0.0, 0
	for i := range alloc {
		served += alloc[i]
		if !s.up[i] || s.model.Kinds[i] != LightUser || air[i] <= 0 {
			continue
		}
		lightSum += alloc[i] / air[i]
		lightN++
	}
	st := EpochStats{Up: s.nUp, Offered: offered, Served: served}
	if lightN > 0 {
		st.LightSat = lightSum / float64(lightN)
	}
	return st
}
