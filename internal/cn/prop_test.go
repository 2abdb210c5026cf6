package cn_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cn"
	"repro/internal/proptest"
)

// Property suite for the community-network scheduling layer. The scheduler
// contract — never exceed demand or capacity, stay non-negative, conserve
// work under congestion — is checked directly on random demand vectors for
// every discipline, and the two simulators are checked for bounded outputs,
// determinism, and the topology-aware capacity clamp. (Gap >= 1 is
// deliberately NOT asserted: random demand can leave a lightly-loaded far
// member better served than the near quartile.)

// allocTol absorbs waterfill/credit float accumulation error.
const allocTol = 1e-9

func schedulers() []cn.Scheduler {
	return []cn.Scheduler{cn.Proportional{}, cn.MaxMin{}, &cn.CPR{}}
}

func TestPropAllocateRespectsDemandAndCapacity(t *testing.T) {
	proptest.Run(t, 501, 120, func(g *proptest.G) error {
		demand := g.FloatsIn(1, 20, 0, 1000)
		capacity := g.Float64Range(0.1, 3000)
		for _, s := range schedulers() {
			s.Reset(len(demand))
			alloc := s.Allocate(demand, capacity)
			if len(alloc) != len(demand) {
				return fmt.Errorf("%s: alloc len %d != demand len %d", s.Name(), len(alloc), len(demand))
			}
			total := 0.0
			offered := 0.0
			for i, a := range alloc {
				if math.IsNaN(a) || a < -allocTol {
					return fmt.Errorf("%s: negative/NaN allocation %v at %d", s.Name(), a, i)
				}
				if a > demand[i]*(1+allocTol)+allocTol {
					return fmt.Errorf("%s: alloc %v exceeds demand %v at %d", s.Name(), a, demand[i], i)
				}
				total += a
				offered += demand[i]
			}
			if total > capacity*(1+allocTol)+allocTol {
				return fmt.Errorf("%s: total alloc %v exceeds capacity %v", s.Name(), total, capacity)
			}
			// Work conservation: when offered load fits, everyone is served.
			if offered <= capacity {
				for i, a := range alloc {
					if !proptest.ApproxEq(a, demand[i], allocTol) {
						return fmt.Errorf("%s: uncongested but alloc %v < demand %v at %d",
							s.Name(), a, demand[i], i)
					}
				}
			}
		}
		return nil
	})
}

func TestPropMaxMinProtectsSmallDemands(t *testing.T) {
	proptest.Run(t, 502, 120, func(g *proptest.G) error {
		demand := g.FloatsIn(2, 20, 0, 1000)
		capacity := g.Float64Range(0.1, 1500)
		alloc := cn.MaxMin{}.Allocate(demand, capacity)
		// Max-min: a member whose demand is below the equal share is fully
		// served.
		share := capacity / float64(len(demand))
		for i, d := range demand {
			if d <= share && !proptest.ApproxEq(alloc[i], d, allocTol) {
				return fmt.Errorf("demand %v below equal share %v but alloc %v", d, share, alloc[i])
			}
		}
		return nil
	})
}

func TestPropSimulateBoundedAndDeterministic(t *testing.T) {
	proptest.Run(t, 503, 25, func(g *proptest.G) error {
		cfg := cn.ChurnConfig{
			Members:        g.IntRange(2, 10),
			HeavyFrac:      g.Float64Range(0, 0.6),
			CapacityFactor: g.Float64Range(0.3, 2),
		}
		epochs := g.IntRange(1, 20)
		cfg.Seed = g.Uint64()
		for _, s := range []cn.Scheduler{cn.MaxMin{}, &cn.CPR{}} {
			res, err := cn.Simulate(cfg, epochs, s)
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name(), err)
			}
			for name, v := range map[string]float64{
				"LightProtected":    res.LightProtected,
				"LightSatisfaction": res.LightSatisfaction,
				"HeavySatisfaction": res.HeavySatisfaction,
			} {
				// Mean of an empty observation set is NaN by design.
				if !math.IsNaN(v) && (v < -allocTol || v > 1+allocTol) {
					return fmt.Errorf("%s: %s = %v out of [0,1]", s.Name(), name, v)
				}
			}
			if res.CongestedEpochs < 0 || res.CongestedEpochs > epochs {
				return fmt.Errorf("%s: CongestedEpochs %d out of [0,%d]", s.Name(), res.CongestedEpochs, epochs)
			}
			if !math.IsNaN(res.Utilization) && res.Utilization < -allocTol {
				return fmt.Errorf("%s: negative utilization %v", s.Name(), res.Utilization)
			}
			s.Reset(cfg.Members)
			res2, err := cn.Simulate(cfg, epochs, s)
			if err != nil {
				return err
			}
			if !proptest.SameFloat(res.LightSatisfaction, res2.LightSatisfaction) ||
				!proptest.SameFloat(res.Utilization, res2.Utilization) ||
				res.CongestedEpochs != res2.CongestedEpochs {
				return fmt.Errorf("%s: same seed, different result: %+v vs %+v", s.Name(), res, res2)
			}
		}
		return nil
	})
}

func TestPropTopologyAwareClampAndGap(t *testing.T) {
	proptest.Run(t, 504, 25, func(g *proptest.G) error {
		cfg := cn.ChurnConfig{
			Members:        g.IntRange(4, 10),
			HeavyFrac:      g.Float64Range(0, 0.6),
			CapacityFactor: g.Float64Range(0.3, 2),
		}
		epochs := g.IntRange(1, 15)
		cfg.Seed = g.Uint64()
		res, err := cn.SimulateTopologyAware(cfg, epochs, cn.MaxMin{})
		if err != nil {
			return err
		}
		// Per-epoch satisfaction is clamped to [0,1] by the path-capacity
		// cap, so the near/far means must stay there too (NaN = no
		// observations). Gap >= 1 is NOT an invariant — random demand can
		// leave a lightly-loaded far member better served — only the
		// ratio's consistency is.
		for name, v := range map[string]float64{"NearSat": res.NearSat, "FarSat": res.FarSat} {
			if !math.IsNaN(v) && (v < -allocTol || v > 1+allocTol) {
				return fmt.Errorf("%s = %v out of [0,1]", name, v)
			}
		}
		if res.FarSat > 0 {
			if !proptest.SameFloat(res.Gap, res.NearSat/res.FarSat) {
				return fmt.Errorf("Gap = %v inconsistent with NearSat/FarSat = %v", res.Gap, res.NearSat/res.FarSat)
			}
		} else if res.Gap != 0 {
			return fmt.Errorf("FarSat = %v but Gap = %v, want 0", res.FarSat, res.Gap)
		}
		res2, err := cn.SimulateTopologyAware(cfg, epochs, cn.MaxMin{})
		if err != nil {
			return err
		}
		if !proptest.SameFloat(res.NearSat, res2.NearSat) || !proptest.SameFloat(res.FarSat, res2.FarSat) {
			return fmt.Errorf("same seed, different topology-aware result: %+v vs %+v", res, res2)
		}
		return nil
	})
	if _, err := cn.SimulateTopologyAware(cn.ChurnConfig{Members: 3, CapacityFactor: 1}, 1, cn.MaxMin{}); err == nil {
		t.Error("SimulateTopologyAware accepted Members=3, want error for < 4")
	}
}
