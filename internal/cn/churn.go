package cn

// Churn-aware congestion simulation for the timeline engine: the same mesh,
// demand model, and scheduler discipline as Simulate, but held open as a
// stateful machine so an external event stream can fail and repair members
// between epochs. The demand process draws one sample per member per epoch
// regardless of who is up — churn masks demand, it never perturbs the RNG —
// so two replays of the same seed stay identical even when their failure
// schedules differ only in timing, and an empty stream reproduces the
// all-up trajectory exactly.

import "fmt"

// ChurnConfig parameterizes a churn-aware run. It mirrors SimConfig minus
// the epoch count (the replaying stream's horizon decides that).
type ChurnConfig struct {
	Members   int
	HeavyFrac float64
	// CapacityFactor scales the gateway capacity relative to the mean
	// offered airtime load of the full (all-up) membership.
	CapacityFactor float64
	Seed           uint64
}

// ChurnSim is the live state: mesh, demand model, scheduler, and the up/down
// member set. Not safe for concurrent use.
type ChurnSim struct {
	simSetup
	cfg   ChurnConfig
	sched Scheduler
	up    []bool
	nUp   int
	// scale multiplies every member's demand draw (1 = baseline). It scales
	// the draw after the RNG consumes it, so changing the scale mid-run never
	// perturbs the demand process itself — the same churn-independence
	// guarantee SetUp keeps.
	scale float64
}

// NewChurnSim builds the mesh and demand model exactly as Simulate does for
// the same (Members, HeavyFrac, Seed) and starts every member up. Member i
// maps to mesh node i+1 (node 0 is the gateway).
func NewChurnSim(cfg ChurnConfig, sched Scheduler) (*ChurnSim, error) {
	if cfg.Members < 2 {
		return nil, fmt.Errorf("cn: need at least 2 members, got %d", cfg.Members)
	}
	setup, err := newSimSetup(cfg.Members, cfg.HeavyFrac, cfg.CapacityFactor, cfg.Seed)
	if err != nil {
		return nil, err
	}

	sched.Reset(cfg.Members)
	up := make([]bool, cfg.Members)
	for i := range up {
		up[i] = true
	}
	return &ChurnSim{
		simSetup: setup,
		cfg:      cfg,
		sched:    sched,
		up:       up,
		nUp:      cfg.Members,
		scale:    1,
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
	if m < 0 || m >= s.cfg.Members {
		return fmt.Errorf("cn: member %d outside [0, %d)", m, s.cfg.Members)
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

// EpochStats summarizes one epoch of the churn-aware run. Offered and Served
// are airtime (ETX-weighted bytes) over the up members only.
type EpochStats struct {
	Up      int
	Offered float64
	Served  float64
	// LightSat is the mean granted/demanded over up light users this epoch.
	LightSat float64
}

// Epoch draws one demand sample for every member (down members' draws are
// discarded, keeping the process churn-independent), runs the scheduler over
// the up members' airtime demands, and returns the epoch summary.
func (s *ChurnSim) Epoch() EpochStats {
	bytesDemand, _ := s.model.Sample(s.demandRNG)
	airDemand := make([]float64, s.cfg.Members)
	offered := 0.0
	for i := range bytesDemand {
		if !s.up[i] {
			continue
		}
		airDemand[i] = bytesDemand[i] * s.scale * s.net.PathETX[i+1]
		offered += airDemand[i]
	}
	alloc := s.sched.Allocate(airDemand, s.capacity)

	served := 0.0
	lightSum, lightN := 0.0, 0
	for i := range alloc {
		served += alloc[i]
		if !s.up[i] || s.model.Kinds[i] != LightUser || airDemand[i] <= 0 {
			continue
		}
		lightSum += alloc[i] / airDemand[i]
		lightN++
	}
	st := EpochStats{Up: s.nUp, Offered: offered, Served: served}
	if lightN > 0 {
		st.LightSat = lightSum / float64(lightN)
	}
	return st
}
