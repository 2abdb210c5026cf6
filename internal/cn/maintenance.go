package cn

import (
	"fmt"

	"repro/internal/rng"
)

// MaintenanceConfig models the volunteer-labour side of a community network:
// nodes fail stochastically and volunteers repair them. The community-
// network literature the paper cites identifies maintenance capacity, not
// equipment, as the binding constraint on sustainability.
type MaintenanceConfig struct {
	Nodes int
	// FailProb is each up node's per-epoch failure probability.
	FailProb float64
	// Volunteers is the number of active maintainers; each can repair one
	// node per epoch.
	Volunteers int
	// TravelLimit caps how many epochs a repair may be deferred before the
	// member churns (their node is abandoned). 0 disables churn.
	TravelLimit int
	Epochs      int
	Seed        uint64
}

// MaintenanceResult summarizes a maintenance run.
type MaintenanceResult struct {
	// Availability is the mean fraction of nodes up across epochs.
	Availability float64
	// MeanRepairDelay is the average epochs a failed node waited.
	MeanRepairDelay float64
	// Abandoned counts nodes lost to churn (TravelLimit exceeded).
	Abandoned int
}

// SimulateMaintenance runs the failure/repair process. Repairs are FIFO:
// the longest-failed node is fixed first.
func SimulateMaintenance(cfg MaintenanceConfig) (MaintenanceResult, error) {
	if cfg.Nodes < 1 {
		return MaintenanceResult{}, fmt.Errorf("cn: maintenance needs nodes >= 1, got %d", cfg.Nodes)
	}
	r := rng.New(cfg.Seed)
	const (
		up = iota
		down
		gone
	)
	state := make([]int, cfg.Nodes)
	downSince := make([]int, cfg.Nodes)

	var upSum float64
	var delays []float64
	abandoned := 0

	for e := 0; e < cfg.Epochs; e++ {
		// Failures.
		for i := range state {
			if state[i] == up && r.Bool(cfg.FailProb) {
				state[i] = down
				downSince[i] = e
			}
		}
		// Churn.
		if cfg.TravelLimit > 0 {
			for i := range state {
				if state[i] == down && e-downSince[i] >= cfg.TravelLimit {
					state[i] = gone
					abandoned++
				}
			}
		}
		// Repairs: volunteers fix the longest-down nodes first.
		for v := 0; v < cfg.Volunteers; v++ {
			best, bestSince := -1, e+1
			for i := range state {
				if state[i] == down && downSince[i] < bestSince {
					best, bestSince = i, downSince[i]
				}
			}
			if best == -1 {
				break
			}
			state[best] = up
			delays = append(delays, float64(e-downSince[best]))
		}
		upCount := 0
		for _, s := range state {
			if s == up {
				upCount++
			}
		}
		upSum += float64(upCount) / float64(cfg.Nodes)
	}

	res := MaintenanceResult{Abandoned: abandoned}
	if cfg.Epochs > 0 {
		res.Availability = upSum / float64(cfg.Epochs)
	}
	if len(delays) > 0 {
		sum := 0.0
		for _, d := range delays {
			sum += d
		}
		res.MeanRepairDelay = sum / float64(len(delays))
	}
	return res, nil
}
