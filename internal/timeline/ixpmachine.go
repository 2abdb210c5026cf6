package timeline

// IXPMachine replays exchange-membership and regulation events against an
// ixp.Fabric, keeping live converged BGP state between ticks. Every event
// ends in one session walk, ixp.Fabric.EstablishSessions, whose new sessions
// are link+ peer deltas through bgpsim's incremental engine. A join (or soft
// pressure join) adds only the new member's sessions, since every other
// agreeing pair already peers. A leave first withdraws the departing
// member's sessions at that exchange as link- deltas, and the walk re-homes
// them at its remaining exchanges, exactly as a cold re-establishment would.
// Regulation force-peers whole exchanges, and the same walk adds those
// sessions one delta at a time: nothing re-converges after the first tick.
// Equivalence with the cold path (re-establish everything, re-converge
// cold, every tick) is pinned per tick by the property suite; the
// incremental-vs-cold fallback inside Converged.Apply makes the tables
// themselves bit-identical by contract.

import (
	"context"
	"fmt"

	"repro/internal/bgpsim"
	"repro/internal/ixp"
)

// IXPMachine is live fabric state plus a demand set to classify each tick.
// Not safe for concurrent use.
type IXPMachine struct {
	f       *ixp.Fabric
	reg     ixp.Regulation
	country string
	demands []ixp.Demand
	conv    *bgpsim.Converged
}

// NewIXPMachine wraps a fabric: it establishes the initial sessions (no
// regulation) and converges once, the state every later event patches
// incrementally. country scopes the locality observation (and regulation
// events name their own country); demands are classified against the
// converged tables every tick. workers fans the one convergence (<= 0 means
// GOMAXPROCS; observations are identical for any value); ctx cancels it —
// machines have no per-tick context.
func NewIXPMachine(ctx context.Context, f *ixp.Fabric, demands []ixp.Demand, country string, workers int) (*IXPMachine, error) {
	m := &IXPMachine{f: f, country: country, demands: demands}
	f.EstablishSessions(m.reg, f.Topo.AddPeer)
	conv, err := f.Topo.ConvergeStateCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	m.conv = conv
	return m, nil
}

// Kinds: membership (strict join/leave and soft pressure) plus regulation.
func (m *IXPMachine) Kinds() []Kind {
	return []Kind{KindIXPJoin, KindIXPLeave, KindRegulate, KindIXPPressure}
}

// Apply handles join, leave, pressure, and regulate events. Joins and leaves
// are strict: joining an exchange the AS is already a member of, or leaving
// one it is not, is an error. Pressure is the soft join cascade rules emit —
// a no-op when the AS is already a member.
func (m *IXPMachine) Apply(ev Event) error {
	switch ev.Kind {
	case KindIXPJoin, KindIXPPressure:
		if x, ok := m.f.IXP(ev.Name); ok && x.HasMember(ev.ASN) {
			if ev.Kind == KindIXPPressure {
				return nil
			}
			return fmt.Errorf("AS %d already a member of %s", ev.ASN, ev.Name)
		}
		if err := m.f.Join(ev.Name, ev.ASN, ev.Policy); err != nil {
			return err
		}
	case KindIXPLeave:
		if err := m.f.Leave(ev.Name, ev.ASN, m.peerDelta(bgpsim.DeltaLinkDown)); err != nil {
			return err
		}
	case KindRegulate:
		m.reg = ixp.Regulation{Country: ev.Name, MandatoryPeering: true}
	default:
		return fmt.Errorf("IXP machine cannot apply %s events", ev.Kind)
	}
	m.f.EstablishSessions(m.reg, m.peerDelta(bgpsim.DeltaLinkUp))
	return nil
}

// peerDelta returns a session callback that applies a peer link delta of the
// given kind to the live converged state.
func (m *IXPMachine) peerDelta(kind bgpsim.DeltaKind) func(a, b bgpsim.ASN) error {
	return func(a, b bgpsim.ASN) error {
		_, err := m.conv.Apply(bgpsim.Delta{Kind: kind, A: a, B: b, Peer: true})
		return err
	}
}

// Cols: total memberships across exchanges, IXP-attributed sessions, the
// domestic share of reachable demand volume, and the reachable share of
// total demand volume.
func (m *IXPMachine) Cols() []Col {
	return []Col{
		{Name: "members", Prec: -1},
		{Name: "sessions", Prec: -1},
		{Name: "domestic", Prec: 3},
		{Name: "reach-share", Prec: 3},
	}
}

// Observe classifies the demand set against the live converged tables; the
// tables are always current (events patch them as they apply).
func (m *IXPMachine) Observe(int) ([]float64, error) {
	members := 0
	for _, name := range m.f.IXPNames() {
		if x, ok := m.f.IXP(name); ok {
			members += len(x.Members())
		}
	}
	loc := m.f.Locality(m.conv.Tables(), m.demands, m.country)
	reachShare := 0.0
	if loc.TotalVolume > 0 {
		reachShare = loc.ReachableVolume / loc.TotalVolume
	}
	return []float64{
		float64(members),
		float64(m.f.Sessions()),
		loc.DomesticShare(),
		reachShare,
	}, nil
}

// State exposes the live converged state for oracles and fingerprinting.
func (m *IXPMachine) State() *bgpsim.Converged { return m.conv }
