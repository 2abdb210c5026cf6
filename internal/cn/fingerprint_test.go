package cn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
)

// congestionFingerprintShapes are the (members, heavy-frac, capacity-factor)
// communities TestCongestionFingerprint runs: the E3 default, a small mesh,
// a lightly loaded one and a heavy, chronically congested one.
var congestionFingerprintShapes = []struct {
	members        int
	heavyFrac      float64
	capacityFactor float64
}{
	{30, 0.2, 0.6},
	{8, 0.25, 0.6},
	{20, 0.1, 1.3},
	{40, 0.5, 0.3},
}

func hashFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// TestCongestionFingerprint pins every congestion output bit for bit: E3's
// SimResult for the three disciplines, the topology-aware result over the same
// shapes, and a churn trajectory that interleaves member fails and repairs
// with demand-scale changes. Never edit the hash: a change that moves it
// changes what E3, cn-topology, E18 and E21 print.
func TestCongestionFingerprint(t *testing.T) {
	const want = "4509a5a43d96541cd181315ed5a3d5f733193eda9285145860848cd075a3c7a5"
	const epochs = 60
	h := sha256.New()
	for _, s := range congestionFingerprintShapes {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := ChurnConfig{Members: s.members, HeavyFrac: s.heavyFrac, CapacityFactor: s.capacityFactor, Seed: seed}
			fmt.Fprintf(h, "%d/%v/%v/%d\n", s.members, s.heavyFrac, s.capacityFactor, seed)
			sims, err := CompareSchedulers(cfg, epochs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range sims {
				fmt.Fprintf(h, "%s %d\n", r.Scheduler, r.CongestedEpochs)
				hashFloats(h, r.LightProtected, r.LightSatisfaction, r.HeavySatisfaction,
					r.BurstSatisfaction, r.Utilization)
			}
			for _, sched := range freshSchedulers() {
				r, err := SimulateTopologyAware(cfg, epochs, sched)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "topo %s\n", r.Scheduler)
				hashFloats(h, r.NearSat, r.FarSat, r.Gap)
			}
		}
	}
	for _, sched := range freshSchedulers() {
		sim, err := NewChurnSim(ChurnConfig{Members: 12, HeavyFrac: 0.25, CapacityFactor: 0.7, Seed: 5}, sched)
		if err != nil {
			t.Fatal(err)
		}
		// Fail one member every six epochs and repair it nine epochs later,
		// so two are down at a time, and step the demand scale every 11.
		for e := 0; e < 80; e++ {
			if e%6 == 1 {
				if err := sim.SetUp(e/6%12, false); err != nil {
					t.Fatal(err)
				}
			}
			if e%6 == 4 && e >= 6 {
				if err := sim.SetUp((e/6-1)%12, true); err != nil {
					t.Fatal(err)
				}
			}
			if e%11 == 5 {
				if err := sim.SetDemandScale(1 + float64(e%5)/2); err != nil {
					t.Fatal(err)
				}
			}
			st := sim.Epoch()
			fmt.Fprintf(h, "churn %s %d %d\n", sched.Name(), e, st.Up)
			hashFloats(h, st.Offered, st.Served, st.LightSat)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("congestion fingerprint = %s, want %s", got, want)
	}
}
