package timeline

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bgpsim"
	"repro/internal/cn"
	"repro/internal/experiment"
	"repro/internal/proptest"
	"repro/internal/rng"
)

// Property suite for the timeline engine. The invariants it pins:
//
//   - replay determinism: the same (world seed, stream) renders byte-equal
//     observation tables at every worker count;
//   - canonicalization: any permutation of a stream's events replays to the
//     same bytes, and the canonical form is a fixpoint;
//   - the incremental oracle: after every tick the live incremental tables
//     are cell-identical to a cold convergence of the mutated topology
//     (extending bgpsim's per-delta oracle to whole streams, PR 7 pattern);
//   - revert: unwinding a replayed machine restores the pre-replay state
//     ref-exactly, as certified by the slab-ref fingerprint.

// worldSpec describes a rebuildable BGP world plus one generated stream over
// it. Building from a seed (rather than drawing the topology edge by edge)
// keeps worlds rebuildable: determinism properties need several identical
// copies of the same world. Each iteration exercises ONE generator — a flap
// storm or a prefix migration — because applicability is a per-generator
// guarantee: two generators merged over the same prefixes can contradict
// each other (Merge unions events, it does not reconcile them).
type worldSpec struct {
	seed    uint64
	mids    int
	stubs   int
	ticks   int
	perTick int
	hold    int
	migrate bool
}

func drawWorldSpec(g *proptest.G) worldSpec {
	return worldSpec{
		seed:    g.Uint64(),
		mids:    g.IntRange(2, 4),
		stubs:   g.IntRange(3, 8),
		ticks:   g.IntRange(4, 12),
		perTick: g.IntRange(1, 2),
		hold:    g.IntRange(1, 3),
		migrate: g.Bool(0.3),
	}
}

func (w worldSpec) build() (*bgpsim.Hierarchy, Stream, error) {
	h, err := bgpsim.BuildHierarchyOpts(rng.New(w.seed), bgpsim.HierarchyOpts{NMid: w.mids, NStub: w.stubs})
	if err != nil {
		return nil, Stream{}, err
	}
	var st Stream
	if w.migrate {
		st, err = GenPrefixMigration(h, w.seed^streamSalt, w.ticks, w.hold+1)
	} else {
		st, err = GenFlapStorm(h, w.seed^streamSalt, w.ticks, w.perTick, w.hold)
	}
	if err != nil {
		return nil, Stream{}, err
	}
	return h, st, nil
}

// renderStream replays s over a fresh copy of w's world at the given worker
// count and returns the rendered observation table.
func renderStream(w worldSpec, s Stream, workers int) (string, error) {
	h, err := bgpsim.BuildHierarchyOpts(rng.New(w.seed), bgpsim.HierarchyOpts{NMid: w.mids, NStub: w.stubs})
	if err != nil {
		return "", err
	}
	m, err := NewBGPMachine(context.Background(), h.Topo, workers)
	if err != nil {
		return "", err
	}
	series, err := ReplayCtx(context.Background(), s, m)
	if err != nil {
		return "", err
	}
	res := &experiment.Result{ID: "P", Title: "prop series"}
	series.Table(res, "P", "prop series")
	return experiment.RenderMarkdown([]*experiment.Result{res}), nil
}

// TestPropReplayDeterministicAcrossWorkers: same seed + stream, any worker
// count, byte-identical observation tables — the contract that lets the
// batch runner, disk cache, and humnetd treat temporal scenarios like
// equilibrium ones.
func TestPropReplayDeterministicAcrossWorkers(t *testing.T) {
	proptest.Run(t, 901, 15, func(g *proptest.G) error {
		w := drawWorldSpec(g)
		_, stream, err := w.build()
		if err != nil {
			return err
		}
		base, err := renderStream(w, stream, 1)
		if err != nil {
			return fmt.Errorf("workers=1: %w", err)
		}
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			got, err := renderStream(w, stream, workers)
			if err != nil {
				return fmt.Errorf("workers=%d: %w", workers, err)
			}
			if got != base {
				return fmt.Errorf("workers=%d table differs from workers=1 on %+v", workers, w)
			}
		}
		return nil
	})
}

// TestPropCanonicalizationInvariance: replay is a function of the event
// multiset, not the order events were generated in.
func TestPropCanonicalizationInvariance(t *testing.T) {
	proptest.Run(t, 902, 20, func(g *proptest.G) error {
		w := drawWorldSpec(g)
		_, stream, err := w.build()
		if err != nil {
			return err
		}
		base, err := renderStream(w, stream, 1)
		if err != nil {
			return err
		}
		perm := g.Perm(len(stream.Events))
		shuffled := Stream{Horizon: stream.Horizon, Events: make([]Event, len(stream.Events))}
		for i, j := range perm {
			shuffled.Events[i] = stream.Events[j]
		}
		got, err := renderStream(w, shuffled, 1)
		if err != nil {
			return fmt.Errorf("shuffled replay failed: %w", err)
		}
		if got != base {
			return fmt.Errorf("shuffled stream replays differently on %+v", w)
		}
		if FormatStream(shuffled) != FormatStream(stream) {
			return fmt.Errorf("shuffled stream formats differently on %+v", w)
		}
		canon := shuffled.Canonicalize()
		again := canon.Canonicalize()
		for i := range canon.Events {
			if canon.Events[i] != again.Events[i] {
				return fmt.Errorf("canonicalize not a fixpoint at event %d", i)
			}
		}
		return nil
	})
}

// TestPropIncrementalMatchesColdEveryTick: the replay hook runs the cold
// oracle after each tick, so any divergence between the incremental engine
// (with its uniqueness-gate fallback) and full recomputation is pinned to
// the first tick it appears.
func TestPropIncrementalMatchesColdEveryTick(t *testing.T) {
	proptest.Run(t, 903, 10, func(g *proptest.G) error {
		w := drawWorldSpec(g)
		h, stream, err := w.build()
		if err != nil {
			return err
		}
		m, err := NewBGPMachine(context.Background(), h.Topo, 1)
		if err != nil {
			return err
		}
		_, err = ReplayCtx(context.Background(), stream, hookedMachine{m, func(tick int) error {
			if err := tablesEqualCold(m.State()); err != nil {
				return fmt.Errorf("tick %d diverges from cold oracle: %w", tick, err)
			}
			return nil
		}})
		return err
	})
}

// TestPropUnwindRestoresStatePointerExactly: after a full replay, reverting
// every patch in LIFO order restores the converged state — tables, applied
// depth, and shared path-chain heads — to the pre-replay fingerprint.
func TestPropUnwindRestoresStatePointerExactly(t *testing.T) {
	proptest.Run(t, 904, 20, func(g *proptest.G) error {
		w := drawWorldSpec(g)
		h, stream, err := w.build()
		if err != nil {
			return err
		}
		m, err := NewBGPMachine(context.Background(), h.Topo, 1)
		if err != nil {
			return err
		}
		before := m.State().StateFingerprint()
		if _, err := ReplayCtx(context.Background(), stream, m); err != nil {
			return err
		}
		if len(stream.Events) > 0 && m.Applied() != len(stream.Events) {
			return fmt.Errorf("machine recorded %d patches for %d events", m.Applied(), len(stream.Events))
		}
		m.Unwind()
		if m.Applied() != 0 {
			return fmt.Errorf("unwound machine still holds %d patches", m.Applied())
		}
		if after := m.State().StateFingerprint(); after != before {
			return fmt.Errorf("fingerprint %#x after unwind, %#x before on %+v", after, before, w)
		}
		// The unwound machine is live: the same stream replays again to the
		// same place.
		if _, err := ReplayCtx(context.Background(), stream, m); err != nil {
			return fmt.Errorf("re-replay after unwind failed: %w", err)
		}
		return nil
	})
}

// reachCountMatches checks the reachable-cell count ReachableCells keeps
// against a full scan of c's tables through the exported accessors.
func reachCountMatches(c *bgpsim.Converged) error {
	rt := c.Tables()
	scan := 0
	for _, n := range c.Topology().ASNs() {
		scan += len(rt.Prefixes(n))
	}
	if got, _ := rt.ReachableCells(); got != scan {
		return fmt.Errorf("ReachableCells = %d, a scan counts %d", got, scan)
	}
	return nil
}

// reachCheckedMachine runs reachCountMatches after every Apply.
type reachCheckedMachine struct{ *BGPMachine }

func (m reachCheckedMachine) Apply(ev Event) error {
	if err := m.BGPMachine.Apply(ev); err != nil {
		return err
	}
	if err := reachCountMatches(m.State()); err != nil {
		return fmt.Errorf("after applying %v: %w", ev, err)
	}
	return nil
}

// TestPropReachableCountMatchesScan: the count Observe reads in O(1)
// equals a full scan after every Apply of a replay, after each Revert of
// the newest half of its patches, and after Unwind reverts the rest.
func TestPropReachableCountMatchesScan(t *testing.T) {
	proptest.Run(t, 906, 20, func(g *proptest.G) error {
		w := drawWorldSpec(g)
		h, stream, err := w.build()
		if err != nil {
			return err
		}
		m, err := NewBGPMachine(context.Background(), h.Topo, 1)
		if err != nil {
			return err
		}
		if err := reachCountMatches(m.State()); err != nil {
			return fmt.Errorf("after cold convergence: %w", err)
		}
		if _, err := ReplayCtx(context.Background(), stream, reachCheckedMachine{m}); err != nil {
			return err
		}
		for keep := len(m.patches) / 2; len(m.patches) > keep; {
			last := len(m.patches) - 1
			m.c.Revert(m.patches[last])
			m.patches = m.patches[:last]
			if err := reachCountMatches(m.State()); err != nil {
				return fmt.Errorf("after reverting patch %d: %w", last, err)
			}
		}
		m.Unwind()
		if err := reachCountMatches(m.State()); err != nil {
			return fmt.Errorf("after unwind: %w", err)
		}
		return nil
	})
}

// TestPropCNReplayDeterministic: the CN machine's demand process is a pure
// function of the config seed, so equal configs and streams produce equal
// tables, and generated churn always replays.
func TestPropCNReplayDeterministic(t *testing.T) {
	proptest.Run(t, 905, 20, func(g *proptest.G) error {
		seed := g.Uint64()
		members := g.IntRange(3, 16)
		ticks := g.IntRange(3, 20)
		failProb := g.Float64Range(0, 0.4)
		repairAfter := g.IntRange(1, 4)
		stream, err := GenCNChurn(members, seed^streamSalt, ticks, failProb, repairAfter)
		if err != nil {
			return err
		}
		render := func() (string, error) {
			m, err := NewCNMachine(cn.ChurnConfig{Members: members, CapacityFactor: 0.6, Seed: seed}, &cn.CPR{})
			if err != nil {
				return "", err
			}
			series, err := ReplayCtx(context.Background(), stream, m)
			if err != nil {
				return "", err
			}
			res := &experiment.Result{ID: "C", Title: "cn series"}
			series.Table(res, "C", "cn series")
			return experiment.RenderMarkdown([]*experiment.Result{res}), nil
		}
		a, err := render()
		if err != nil {
			return err
		}
		b, err := render()
		if err != nil {
			return err
		}
		if a != b {
			return fmt.Errorf("two replays of the same churn differ (members=%d ticks=%d)", members, ticks)
		}
		return nil
	})
}
