package timeline

// BGPMachine replays KindBGP events through bgpsim's incremental engine. Each
// applied delta produces a Patch, kept on a LIFO stack so Unwind can restore
// the initial converged state ref-exactly; the incremental-vs-cold
// fallback decision (the uniqueness gate) happens inside Converged.Apply,
// so observations here are identical to cold re-convergence by contract.

import (
	"context"
	"fmt"

	"repro/internal/bgpsim"
)

// BGPMachine is live converged BGP state. Not safe for concurrent use.
type BGPMachine struct {
	c       *bgpsim.Converged
	patches []*bgpsim.Patch
	// Per-tick accumulators, reset by Observe.
	tickEvents int
	tickCells  int
}

// NewBGPMachine converges t (fanning prefix columns over workers goroutines;
// <= 0 means GOMAXPROCS — the tables are bit-identical for any value) and
// wraps the live state; ctx cancels the initial convergence. The topology is
// captured by reference: mutate it only through replayed events while the
// machine is in use.
func NewBGPMachine(ctx context.Context, t *bgpsim.Topology, workers int) (*BGPMachine, error) {
	c, err := t.ConvergeStateCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	return &BGPMachine{c: c}, nil
}

// Cols: events and cells count this tick's applied deltas and the table
// cells they overwrote (the measured blast radius); reachable/reach-share
// and prefixes snapshot the table after the tick's events.
func (m *BGPMachine) Cols() []Col {
	return []Col{
		{Name: "events", Prec: -1},
		{Name: "cells", Prec: -1},
		{Name: "reachable", Prec: -1},
		{Name: "reach-share", Prec: 3},
		{Name: "prefixes", Prec: -1},
	}
}

// Kinds: BGP deltas only.
func (m *BGPMachine) Kinds() []Kind { return []Kind{KindBGP} }

// Apply applies one BGP delta incrementally and records its undo patch.
func (m *BGPMachine) Apply(ev Event) error {
	if ev.Kind != KindBGP {
		return fmt.Errorf("BGP machine cannot apply %s events", ev.Kind)
	}
	p, err := m.c.Apply(ev.Delta)
	if err != nil {
		return err
	}
	m.patches = append(m.patches, p)
	m.tickEvents++
	m.tickCells += p.Cells()
	return nil
}

// Observe reports the tick row and resets the per-tick accumulators.
func (m *BGPMachine) Observe(int) ([]float64, error) {
	rt := m.c.Tables()
	reach, total := rt.ReachableCells()
	share := 0.0
	if total > 0 {
		share = float64(reach) / float64(total)
	}
	_, prefixes := rt.Size()
	row := []float64{
		float64(m.tickEvents),
		float64(m.tickCells),
		float64(reach),
		share,
		float64(prefixes),
	}
	m.tickEvents, m.tickCells = 0, 0
	return row, nil
}

// Unwind reverts every applied event in LIFO order, restoring the machine —
// topology, tables, and shared path chains — to its pre-replay state
// ref-exactly (the bgpsim Revert guarantee, pinned by the property
// suite via StateFingerprint).
func (m *BGPMachine) Unwind() {
	for i := len(m.patches) - 1; i >= 0; i-- {
		m.c.Revert(m.patches[i])
	}
	clear(m.patches) // the truncated slice must not keep the reverted patches reachable
	m.patches = m.patches[:0]
	m.tickEvents, m.tickCells = 0, 0
}

// Applied returns the number of events applied and not yet unwound.
func (m *BGPMachine) Applied() int { return len(m.patches) }

// State exposes the live converged state for oracles and fingerprinting.
func (m *BGPMachine) State() *bgpsim.Converged { return m.c }
