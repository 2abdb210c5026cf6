package bgpsim

import (
	"context"
	"fmt"
)

// runLeakSweepFullWorkers is the pre-incremental sweep — one cold
// convergence per leaker — kept as the equality oracle for the incremental
// path and as the honest "before" side of the sweep benchmarks.
func runLeakSweepFullWorkers(nMid, nStub int, seed uint64, workers int) ([]LeakRow, error) {
	h, victim, err := sweepHierarchy(nMid, nStub, seed)
	if err != nil {
		return nil, err
	}
	return leakSweepRowsFull(h, victim, workers)
}

// leakSweepRowsFull is the cold-per-leaker counterpart of leakSweepRows over
// an already-built hierarchy, so benchmarks can run both sides on the same
// shape.
func leakSweepRowsFull(h *Hierarchy, victim ASN, workers int) ([]LeakRow, error) {
	prefix := fmt.Sprintf("pfx-%d", victim)

	measure := func(kind string, leaker ASN) (LeakRow, error) {
		h.Topo.MarkLeaker(leaker)
		rt, err := h.Topo.ConvergeCtx(context.Background(), workers)
		if err != nil {
			return LeakRow{}, err
		}
		affected, reachable := BlastRadius(rt, leaker, prefix)
		h.Topo.ClearLeaker(leaker)
		row := LeakRow{
			LeakerKind: kind,
			LeakerASN:  leaker,
			Providers:  len(providersOf(h.Topo, leaker)),
			Affected:   len(affected),
		}
		if reachable > 0 {
			row.AffectedShare = float64(row.Affected) / float64(reachable)
		}
		return row, nil
	}
	return sweepRows(h, victim, measure)
}

// runHijackSweepFullWorkers is the pre-incremental hijack sweep — one cold
// convergence per attacker — kept as the equality oracle and benchmark
// baseline (see runLeakSweepFullWorkers).
func runHijackSweepFullWorkers(nMid, nStub int, seed uint64, workers int) ([]HijackRow, error) {
	h, victim, err := sweepHierarchy(nMid, nStub, seed)
	if err != nil {
		return nil, err
	}
	return hijackSweepRowsFull(h, victim, workers)
}

// hijackSweepRowsFull is the cold-per-attacker counterpart of
// hijackSweepRows over an already-built hierarchy (see leakSweepRowsFull).
func hijackSweepRowsFull(h *Hierarchy, victim ASN, workers int) ([]HijackRow, error) {
	prefix := fmt.Sprintf("pfx-%d", victim)

	measure := func(kind string, attacker ASN) (HijackRow, error) {
		if err := h.Topo.Originate(attacker, prefix); err != nil {
			return HijackRow{}, err
		}
		rt, err := h.Topo.ConvergeCtx(context.Background(), workers)
		if err != nil {
			return HijackRow{}, err
		}
		row := HijackRow{AttackerKind: kind, AttackerASN: attacker}
		total := 0
		for _, n := range h.Topo.ASNs() {
			if n == victim || n == attacker {
				continue
			}
			path := rt.Path(n, prefix)
			if path == nil {
				continue
			}
			total++
			if path[len(path)-1] == attacker {
				row.Captured++
			}
		}
		if total > 0 {
			row.CapturedShare = float64(row.Captured) / float64(total)
		}
		h.Topo.WithdrawOrigin(attacker, prefix)
		return row, nil
	}
	return sweepRows(h, victim, measure)
}
