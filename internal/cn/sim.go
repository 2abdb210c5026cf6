package cn

import (
	"math"

	"repro/internal/rng"
)

// MemberKind distinguishes the two behavioural classes in the congestion
// experiment: light users with occasional bursts, and heavy users with
// sustained high demand.
type MemberKind int

// Member kinds.
const (
	LightUser MemberKind = iota
	HeavyUser
)

// String returns the kind name.
func (k MemberKind) String() string {
	if k == HeavyUser {
		return "heavy"
	}
	return "light"
}

// DemandModel generates per-epoch byte demands for each member.
type DemandModel struct {
	// Kinds assigns each member a behaviour class.
	Kinds []MemberKind
	// LightBase is the mean of a light user's everyday demand.
	LightBase float64
	// BurstProb is the chance a light user bursts in an epoch.
	BurstProb float64
	// BurstFactor multiplies LightBase during a burst.
	BurstFactor float64
	// HeavyBase is the mean sustained demand of a heavy user.
	HeavyBase float64
}

// NewDemandModel assigns the first n*heavyFrac members HeavyUser and the
// rest LightUser, with the standard parameters used by experiment E3.
func NewDemandModel(n int, heavyFrac float64) DemandModel {
	kinds := make([]MemberKind, n)
	heavy := heavyUsers(n, heavyFrac)
	for i := 0; i < heavy; i++ {
		kinds[i] = HeavyUser
	}
	return DemandModel{
		Kinds:       kinds,
		LightBase:   1,
		BurstProb:   0.05,
		BurstFactor: 20,
		HeavyBase:   15,
	}
}

// heavyUsers is the number of heavy users among n members: the first
// n·heavyFrac, rounded down.
func heavyUsers(n int, heavyFrac float64) int {
	return int(float64(n) * heavyFrac)
}

// Sample returns one epoch of byte demands and a parallel slice marking
// which light users burst this epoch.
func (m DemandModel) Sample(r *rng.Rand) (demand []float64, burst []bool) {
	demand = make([]float64, len(m.Kinds))
	burst = make([]bool, len(m.Kinds))
	for i, k := range m.Kinds {
		switch k {
		case HeavyUser:
			demand[i] = m.HeavyBase * (0.5 + r.Float64())
		default:
			demand[i] = m.LightBase * (0.5 + r.Float64())
			if r.Bool(m.BurstProb) {
				demand[i] *= m.BurstFactor
				burst[i] = true
			}
		}
	}
	return demand, burst
}

// SimResult summarizes one run of one scheduler.
type SimResult struct {
	Scheduler string
	// LightProtected is the fraction of light-user observations during
	// congested epochs whose demand was (essentially) fully served — the
	// "small demands are protected from heavy hitters" guarantee that
	// distinguishes managed sharing from an unmanaged uplink.
	LightProtected float64
	// LightSatisfaction is light users' mean granted/demanded.
	LightSatisfaction float64
	// HeavySatisfaction is heavy users' mean granted/demanded.
	HeavySatisfaction float64
	// BurstSatisfaction is light users' mean granted/demanded during their
	// burst epochs only — the inter-temporal fairness measure where the
	// credit scheme should shine.
	BurstSatisfaction float64
	// Utilization is allocated/capacity averaged over epochs.
	Utilization float64
	// CongestedEpochs counts epochs where offered load exceeded capacity.
	CongestedEpochs int
}

// Simulate steps a fresh ChurnSim over cfg through sched for epochs epochs,
// every member up, and reduces each epoch into the E3 summary.
func Simulate(cfg ChurnConfig, epochs int, sched Scheduler) (SimResult, error) {
	s, err := NewChurnSim(cfg, sched)
	if err != nil {
		return SimResult{}, err
	}
	var (
		lights, heavies, bursts meanAcc
		utils                   meanAcc
		congested               int
		lightObs, lightFull     int
	)
	sat := make([]float64, cfg.Members)
	for e := 0; e < epochs; e++ {
		air, alloc, burst, offered := s.step()
		granted := 0.0
		clear(sat)
		for i := range alloc {
			granted += alloc[i]
			if air[i] > 0 {
				sat[i] = alloc[i] / air[i]
			}
		}
		utils.add(granted / s.capacity)
		epochCongested := offered > s.capacity
		if epochCongested {
			congested++
		}
		for i, k := range s.model.Kinds {
			switch {
			case k == HeavyUser:
				heavies.add(sat[i])
			case burst[i]:
				bursts.add(sat[i])
				lights.add(sat[i])
			default:
				lights.add(sat[i])
			}
			if k == LightUser && epochCongested && !burst[i] {
				lightObs++
				if sat[i] >= 0.99 {
					lightFull++
				}
			}
		}
	}
	protected := 0.0
	if lightObs > 0 {
		protected = float64(lightFull) / float64(lightObs)
	}
	return SimResult{
		Scheduler:         sched.Name(),
		LightProtected:    protected,
		LightSatisfaction: lights.mean(),
		HeavySatisfaction: heavies.mean(),
		BurstSatisfaction: bursts.mean(),
		Utilization:       utils.mean(),
		CongestedEpochs:   congested,
	}, nil
}

// meanAcc is a running mean, bit-identical to stats.Mean over the values
// in the order they were added.
type meanAcc struct {
	sum float64
	n   int
}

func (m *meanAcc) add(x float64) {
	m.sum += x
	m.n++
}

func (m meanAcc) mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.sum / float64(m.n)
}

// freshSchedulers returns new instances of the three disciplines every
// comparison runs, in report order: unmanaged, max-min, credits.
func freshSchedulers() []Scheduler { return []Scheduler{Proportional{}, MaxMin{}, &CPR{}} }

// CompareSchedulers runs the same configuration through the unmanaged,
// max-min, and CPR disciplines (same seed, hence identical demand and mesh)
// and returns the three results in that order.
func CompareSchedulers(cfg ChurnConfig, epochs int) ([]SimResult, error) {
	scheds := freshSchedulers()
	out := make([]SimResult, 0, len(scheds))
	for _, s := range scheds {
		res, err := Simulate(cfg, epochs, s)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
