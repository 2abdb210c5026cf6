package timeline

// IXPMachine replays exchange-membership and regulation events against an
// ixp.Fabric, keeping live converged BGP state between ticks. Membership
// events take the incremental session-delta path: a join (or soft pressure
// join) establishes only the new member's sessions as link+ peer deltas
// through bgpsim's incremental engine, and a leave retracts only the
// departing member's sessions (then re-homes them at the member's remaining
// exchanges, exactly as a cold re-establishment would). Regulation is the
// one wholesale rewire — it force-peers entire exchanges — so it rebuilds:
// full session establishment plus a fresh convergence. Equivalence with the
// cold path (re-establish everything, re-converge cold, every tick) is
// pinned per tick by the property suite; the incremental-vs-cold fallback
// inside Converged.Apply makes the tables themselves bit-identical by
// contract.

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
	workers int
	conv    *bgpsim.Converged
}

// NewIXPMachine wraps a fabric: it establishes the initial sessions (no
// regulation) and converges once, the state every later event patches
// incrementally. country scopes the locality observation (and regulation
// events name their own country); demands are classified against the
// converged tables every tick. workers fans the convergences (<= 0 means
// GOMAXPROCS; observations are identical for any value); ctx cancels the
// initial convergence only — machines have no per-tick context.
func NewIXPMachine(ctx context.Context, f *ixp.Fabric, demands []ixp.Demand, country string, workers int) (*IXPMachine, error) {
	m := &IXPMachine{f: f, country: country, demands: demands, workers: workers}
	m.f.EstablishSessions(m.reg)
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
		x, ok := m.f.IXP(ev.Name)
		if !ok {
			return fmt.Errorf("%w: %s", ixp.ErrUnknownIXP, ev.Name)
		}
		if x.HasMember(ev.ASN) {
			if ev.Kind == KindIXPPressure {
				return nil
			}
			return fmt.Errorf("AS %d already a member of %s", ev.ASN, ev.Name)
		}
		if err := m.f.Join(ev.Name, ev.ASN, ev.Policy); err != nil {
			return err
		}
		return m.establishMember(ev.ASN)
	case KindIXPLeave:
		x, ok := m.f.IXP(ev.Name)
		if !ok {
			return fmt.Errorf("%w: %s", ixp.ErrUnknownIXP, ev.Name)
		}
		if !x.HasMember(ev.ASN) {
			return fmt.Errorf("AS %d not a member of %s", ev.ASN, ev.Name)
		}
		if _, err := m.f.RetractMemberSessionsVia(ev.Name, ev.ASN, func(a, b bgpsim.ASN) error {
			_, err := m.conv.Apply(bgpsim.Delta{Kind: bgpsim.DeltaLinkDown, A: a, B: b, Peer: true})
			return err
		}); err != nil {
			return err
		}
		m.f.Leave(ev.Name, ev.ASN)
		// Re-home: sessions the member held through this exchange may be
		// re-established at its remaining exchanges, as a cold
		// re-establishment after the leave would.
		return m.establishMember(ev.ASN)
	case KindRegulate:
		m.reg = ixp.Regulation{Country: ev.Name, MandatoryPeering: true}
		m.f.EstablishSessions(m.reg)
		conv, err := m.f.Topo.ConvergeStateCtx(context.Background(), m.workers)
		if err != nil {
			return err
		}
		m.conv = conv
	default:
		return fmt.Errorf("IXP machine cannot apply %s events", ev.Kind)
	}
	return nil
}

// establishMember adds n's missing sessions under the current regulation as
// incremental link+ peer deltas.
func (m *IXPMachine) establishMember(n bgpsim.ASN) error {
	m.f.EstablishMemberSessionsVia(n, m.reg, func(a, b bgpsim.ASN) error {
		_, err := m.conv.Apply(bgpsim.Delta{Kind: bgpsim.DeltaLinkUp, A: a, B: b, Peer: true})
		return err
	})
	return nil
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
