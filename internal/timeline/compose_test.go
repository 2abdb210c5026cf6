package timeline

// Tests for the composition layer: wiring validation, event routing, cascade
// injection mechanics (landing tick, provenance, Once, the horizon drop
// counter, the shared event budget), the composed determinism properties the
// tentpole promises (worker invariance, input-canonicalization invariance),
// the per-tick incremental-vs-cold pin for the IXP machine, and the
// cross-domain machines' own semantics.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bgpsim"
	"repro/internal/cn"
	"repro/internal/experiment"
	"repro/internal/ixp"
	"repro/internal/proptest"
	"repro/internal/rng"
)

// fakeMachine records every applied event and emits a scripted signal, so
// routing and cascade tests can assert exact delivery without simulator
// noise.
type fakeMachine struct {
	kinds   []Kind
	applied []Event
	signal  func(tick int) float64
}

func (m *fakeMachine) Cols() []Col {
	return []Col{{Name: "applied", Prec: -1}, {Name: "signal", Prec: 3}}
}
func (m *fakeMachine) Kinds() []Kind { return m.kinds }
func (m *fakeMachine) Apply(e Event) error {
	m.applied = append(m.applied, e)
	return nil
}
func (m *fakeMachine) Observe(tick int) ([]float64, error) {
	sig := 0.0
	if m.signal != nil {
		sig = m.signal(tick)
	}
	return []float64{float64(len(m.applied)), sig}, nil
}

func TestComposeValidation(t *testing.T) {
	okPart := func(name string, kinds ...Kind) Part {
		return Part{Name: name, M: &fakeMachine{kinds: kinds}}
	}
	fire := func(Obs) []Event { return nil }
	cases := map[string]struct {
		parts []Part
		rules []CascadeRule
		want  string
	}{
		"no parts": {nil, nil, "at least one part"},
		"bad part name": {
			[]Part{okPart("two words", KindCNFail)}, nil, "part 0"},
		"duplicate part": {
			[]Part{okPart("a", KindCNFail), okPart("a", KindCNDemand)}, nil, "duplicate part"},
		"nil machine": {
			[]Part{{Name: "a"}}, nil, "no machine"},
		"overlapping kinds": {
			[]Part{okPart("a", KindCNFail), okPart("b", KindCNFail)}, nil, "both consume"},
		"bad rule name": {
			[]Part{okPart("a", KindCNFail)},
			[]CascadeRule{{Name: "", From: "a", Delay: 1, Fire: fire}}, "rule 0"},
		"duplicate rule": {
			[]Part{okPart("a", KindCNFail)},
			[]CascadeRule{
				{Name: "r", From: "a", Delay: 1, Fire: fire},
				{Name: "r", From: "a", Delay: 2, Fire: fire},
			}, "duplicate rule"},
		"unknown from": {
			[]Part{okPart("a", KindCNFail)},
			[]CascadeRule{{Name: "r", From: "b", Delay: 1, Fire: fire}}, "unknown part"},
		"zero delay": {
			[]Part{okPart("a", KindCNFail)},
			[]CascadeRule{{Name: "r", From: "a", Delay: 0, Fire: fire}}, "delay 0"},
		"nil fire": {
			[]Part{okPart("a", KindCNFail)},
			[]CascadeRule{{Name: "r", From: "a", Delay: 1}}, "no Fire"},
	}
	for name, tc := range cases {
		_, err := Compose(tc.parts, tc.rules)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compose error = %v, want substring %q", name, err, tc.want)
		}
	}
}

// TestComposeRoutesAndInjects pins the cascade mechanics end to end on fake
// machines: events route by kind, injections land at tick+Delay with the
// rule's provenance, Once disarms after the first non-empty firing, and
// past-horizon injections count as dropped.
func TestComposeRoutesAndInjects(t *testing.T) {
	nodes := &fakeMachine{kinds: []Kind{KindCNFail, KindCNRepair}}
	demand := &fakeMachine{kinds: []Kind{KindCNDemand}}
	comp, err := Compose(
		[]Part{{Name: "nodes", M: nodes}, {Name: "demand", M: demand}},
		[]CascadeRule{
			{
				// Fires whenever the nodes part has applied an odd number of
				// events; the injected demand value encodes the firing tick.
				Name: "surge", From: "nodes", Delay: 2,
				Fire: func(o Obs) []Event {
					applied, ok := o.Value("applied")
					if !ok {
						t.Fatal("applied column missing from observation")
					}
					if int(applied)%2 == 0 {
						return nil
					}
					return []Event{{Kind: KindCNDemand, Value: float64(o.Tick) + 1}}
				},
			},
			{
				Name: "alarm", From: "nodes", Delay: 1, Once: true,
				Fire: func(o Obs) []Event {
					if v, _ := o.Value("applied"); v == 0 {
						return nil
					}
					return []Event{{Kind: KindCNDemand, Value: 64}}
				},
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Node events at ticks 1 (odd count -> surge fires at 1, 2) and 2 (even
	// count -> silent), then 6 (odd; lands 8 >= horizon -> dropped).
	st := Stream{Horizon: 8, Events: []Event{
		{At: 1, Kind: KindCNFail, Node: 3},
		{At: 2, Kind: KindCNRepair, Node: 3},
		{At: 6, Kind: KindCNFail, Node: 4},
	}}
	out, err := comp.ReplayCtx(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	// surge fires at ticks 1 (lands 3), 6 (lands 8: dropped), 7 (odd count
	// persists, lands 9: dropped); alarm fires once at tick 1 (lands 2).
	wantInjected := []Event{
		{At: 3, Kind: KindCNDemand, Value: 2, Prov: "surge"},
		{At: 2, Kind: KindCNDemand, Value: 64, Prov: "alarm"},
	}
	if len(out.Injected) != len(wantInjected) {
		t.Fatalf("injected %d events %+v, want %d", len(out.Injected), out.Injected, len(wantInjected))
	}
	for i, want := range wantInjected {
		if out.Injected[i] != want {
			t.Errorf("injected[%d] = %+v, want %+v", i, out.Injected[i], want)
		}
	}
	if out.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", out.Dropped)
	}
	// The demand part saw exactly the two landed injections, in tick order,
	// provenance intact; the nodes part saw only node events.
	if len(demand.applied) != 2 || demand.applied[0].Prov != "alarm" || demand.applied[1].Prov != "surge" {
		t.Fatalf("demand part applied %+v", demand.applied)
	}
	for _, e := range nodes.applied {
		if e.Kind == KindCNDemand {
			t.Fatalf("node part received a demand event: %+v", e)
		}
	}
	// Series shape: one row per tick per part.
	if len(out.Series) != 2 || len(out.Series[0].Rows) != 8 || len(out.Series[1].Rows) != 8 {
		t.Fatalf("series shape wrong: %d parts, %d/%d rows",
			len(out.Series), len(out.Series[0].Rows), len(out.Series[1].Rows))
	}
}

func TestComposeReplayErrors(t *testing.T) {
	newComp := func(rules ...CascadeRule) *Composition {
		c, err := Compose([]Part{{Name: "nodes", M: &fakeMachine{kinds: []Kind{KindCNFail}}}}, rules)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// A stream event no part consumes is rejected before the first tick.
	c := newComp()
	_, err := c.ReplayCtx(context.Background(), Stream{Horizon: 2, Events: []Event{{At: 0, Kind: KindRegulate, Name: "MX"}}})
	if err == nil || !strings.Contains(err.Error(), "no part consumes") {
		t.Errorf("unroutable stream event: %v", err)
	}
	// An injected event no part consumes fails at the firing tick.
	c = newComp(CascadeRule{Name: "r", From: "nodes", Delay: 1,
		Fire: func(Obs) []Event { return []Event{{Kind: KindStakeShift, Value: 0.1}} }})
	_, err = c.ReplayCtx(context.Background(), Stream{Horizon: 2})
	if err == nil || !strings.Contains(err.Error(), "no part consumes") {
		t.Errorf("unroutable injection: %v", err)
	}
	// An injected event that fails validation names the rule.
	c = newComp(CascadeRule{Name: "bad-demand", From: "nodes", Delay: 1,
		Fire: func(Obs) []Event { return []Event{{Kind: KindCNFail, Node: -5}} }})
	_, err = c.ReplayCtx(context.Background(), Stream{Horizon: 2})
	if err == nil || !strings.Contains(err.Error(), "bad-demand") {
		t.Errorf("invalid injection: %v", err)
	}
	// A rule that floods events hits the shared MaxEvents budget, not OOM.
	c = newComp(CascadeRule{Name: "flood", From: "nodes", Delay: 1,
		Fire: func(Obs) []Event {
			evs := make([]Event, 256)
			for i := range evs {
				evs[i] = Event{Kind: KindCNFail, Node: i}
			}
			return evs
		}})
	_, err = c.ReplayCtx(context.Background(), Stream{Horizon: 64})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("budget overflow: %v", err)
	}
	// A composition replays one stream once: the second call is an error,
	// not a replay that inherits the first one's cascade state.
	c = newComp()
	if _, err := c.ReplayCtx(context.Background(), Stream{Horizon: 2}); err != nil {
		t.Fatal(err)
	}
	_, err = c.ReplayCtx(context.Background(), Stream{Horizon: 2})
	if err == nil || !strings.Contains(err.Error(), "already replayed") {
		t.Errorf("second replay: %v", err)
	}
}

// renderTemporalAt runs the composed scenarios through the batch runner at a
// given worker count and renders them — the byte surface reports and humnetd
// serve.
func renderTemporalAt(t *testing.T, ids []string, workers int) string {
	t.Helper()
	jobs := make([]experiment.Job, 0, len(ids))
	for _, id := range ids {
		sc, ok := experiment.Get(id)
		if !ok {
			t.Fatalf("scenario %s not registered", id)
		}
		jobs = append(jobs, experiment.NewJob(sc))
	}
	runner := &experiment.Runner{Workers: workers, ScenarioWorkers: workers}
	results, err := runner.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return experiment.RenderMarkdown(results)
}

// TestComposedScenariosWorkerInvariance: E20–E22 render byte-identically at
// worker counts {1, 4, GOMAXPROCS} — the composed-replay determinism the
// cache and daemon depend on.
func TestComposedScenariosWorkerInvariance(t *testing.T) {
	ids := []string{"E20", "E21", "E22"}
	base := renderTemporalAt(t, ids, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := renderTemporalAt(t, ids, workers); got != base {
			t.Errorf("workers=%d: composed scenario bytes differ from workers=1", workers)
		}
	}
}

// composedFixture builds a fresh two-domain composition (routing hierarchy +
// community network) with a demand-coupling cascade, plus its merged stream.
// Rebuildable from the seed, for invariance properties that need several
// identical copies.
func composedFixture(seed uint64) (*Composition, Stream, error) {
	h, err := bgpsim.BuildHierarchyOpts(rng.New(seed), bgpsim.HierarchyOpts{NMid: 3, NStub: 6})
	if err != nil {
		return nil, Stream{}, err
	}
	storm, err := GenFlapStorm(h, seed^streamSalt, 10, 1, 2)
	if err != nil {
		return nil, Stream{}, err
	}
	churn, err := GenCNChurn(10, seed^streamSalt, 10, 0.2, 2)
	if err != nil {
		return nil, Stream{}, err
	}
	st, err := Merge(storm, churn)
	if err != nil {
		return nil, Stream{}, err
	}
	routing, err := NewBGPMachine(context.Background(), h.Topo, 1)
	if err != nil {
		return nil, Stream{}, err
	}
	community, err := NewCNMachine(cn.ChurnConfig{Members: 10, Seed: seed}, &cn.CPR{})
	if err != nil {
		return nil, Stream{}, err
	}
	comp, err := Compose(
		[]Part{{Name: "routing", M: routing}, {Name: "community", M: community}},
		[]CascadeRule{{
			Name: "demand-coupling", From: "routing", Delay: 1,
			Fire: func(o Obs) []Event {
				share, _ := o.Value("reach-share")
				if share < 0.9 {
					return []Event{{Kind: KindCNDemand, Value: 2}}
				}
				return []Event{{Kind: KindCNDemand, Value: 1}}
			},
		}},
	)
	if err != nil {
		return nil, Stream{}, err
	}
	return comp, st, nil
}

// renderComposed renders every table of a composed replay.
func renderComposed(out *ComposedSeries) string {
	res := &experiment.Result{ID: "C", Title: "composed"}
	out.Tables(res, "C", "composed")
	return experiment.RenderMarkdown([]*experiment.Result{res})
}

// TestPropComposedReplayInputOrderInvariance: composed replay (including the
// cascade injection log) is a function of the stream's event multiset, not
// the order events were written in — input canonicalization quotients away
// generator order before rules ever see a tick.
func TestPropComposedReplayInputOrderInvariance(t *testing.T) {
	proptest.Run(t, 905, 10, func(g *proptest.G) error {
		seed := g.Uint64()
		comp, st, err := composedFixture(seed)
		if err != nil {
			return err
		}
		base, err := comp.ReplayCtx(context.Background(), st)
		if err != nil {
			return err
		}
		perm := g.Perm(len(st.Events))
		shuffled := Stream{Horizon: st.Horizon, Events: make([]Event, len(st.Events))}
		for i, j := range perm {
			shuffled.Events[i] = st.Events[j]
		}
		comp2, _, err := composedFixture(seed)
		if err != nil {
			return err
		}
		got, err := comp2.ReplayCtx(context.Background(), shuffled)
		if err != nil {
			return fmt.Errorf("shuffled composed replay failed: %w", err)
		}
		if renderComposed(got) != renderComposed(base) {
			return fmt.Errorf("shuffled stream composes differently (seed %d)", seed)
		}
		if len(got.Injected) != len(base.Injected) {
			return fmt.Errorf("injection logs differ: %d vs %d events", len(got.Injected), len(base.Injected))
		}
		for i := range got.Injected {
			if got.Injected[i] != base.Injected[i] {
				return fmt.Errorf("injection %d differs: %+v vs %+v", i, got.Injected[i], base.Injected[i])
			}
		}
		return nil
	})
}

// coldIXPMachine is the per-tick oracle for IXPMachine's incremental session
// path: the same fabric semantics, but after every event it re-establishes
// all sessions from scratch and every observation re-converges cold.
type coldIXPMachine struct {
	f       *ixp.Fabric
	reg     ixp.Regulation
	demands []ixp.Demand
	country string
}

func (m *coldIXPMachine) Cols() []Col   { return (&IXPMachine{}).Cols() }
func (m *coldIXPMachine) Kinds() []Kind { return (&IXPMachine{}).Kinds() }

func (m *coldIXPMachine) Apply(ev Event) error {
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
	case KindIXPLeave:
		x, ok := m.f.IXP(ev.Name)
		if !ok {
			return fmt.Errorf("%w: %s", ixp.ErrUnknownIXP, ev.Name)
		}
		if !x.HasMember(ev.ASN) {
			return fmt.Errorf("AS %d not a member of %s", ev.ASN, ev.Name)
		}
		m.f.RetractMemberSessions(ev.Name, ev.ASN)
		m.f.Leave(ev.Name, ev.ASN)
	case KindRegulate:
		m.reg = ixp.Regulation{Country: ev.Name, MandatoryPeering: true}
	default:
		return fmt.Errorf("IXP machine cannot apply %s events", ev.Kind)
	}
	m.f.EstablishSessions(m.reg)
	return nil
}

func (m *coldIXPMachine) Observe(int) ([]float64, error) {
	members := 0
	for _, name := range m.f.IXPNames() {
		if x, ok := m.f.IXP(name); ok {
			members += len(x.Members())
		}
	}
	rt, err := m.f.Topo.ConvergeCtx(context.Background(), 1)
	if err != nil {
		return nil, err
	}
	loc := m.f.Locality(rt, m.demands, m.country)
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

// TestIXPMachineIncrementalMatchesColdPerTick drives joins, pressure joins,
// leaves (with re-homing), and a regulation rewire through the incremental
// IXP machine, pinning two equalities after every tick: the live incremental
// BGP tables match a cold convergence of the mutated topology, and the
// observation series matches a cold-path replica that rebuilds sessions from
// scratch at every event.
func TestIXPMachineIncrementalMatchesColdPerTick(t *testing.T) {
	events := []Event{
		{At: 0, Kind: KindIXPJoin, Name: mxIXP, ASN: incumbentASN, Policy: ixp.Restrictive},
		{At: 1, Kind: KindIXPJoin, Name: mxIXP, ASN: compBase, Policy: ixp.Open},
		{At: 1, Kind: KindIXPJoin, Name: mxIXP, ASN: compBase + 1, Policy: ixp.Open},
		{At: 2, Kind: KindIXPPressure, Name: mxIXP, ASN: compBase + 2, Policy: ixp.Open},
		{At: 3, Kind: KindIXPPressure, Name: mxIXP, ASN: compBase, Policy: ixp.Open}, // member: no-op
		{At: 4, Kind: KindIXPLeave, Name: mxIXP, ASN: compBase + 1},
		{At: 5, Kind: KindIXPJoin, Name: mxIXP, ASN: compBase + 1, Policy: ixp.Selective},
		{At: 6, Kind: KindRegulate, Name: "MX"},
		{At: 7, Kind: KindIXPPressure, Name: mxIXP, ASN: compBase + 3, Policy: ixp.Open},
		{At: 8, Kind: KindIXPLeave, Name: mxIXP, ASN: compBase},
	}
	st := Stream{Horizon: 10, Events: events}

	f, demands, _, err := buildMXWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIXPMachine(context.Background(), f, demands, "MX", 1)
	if err != nil {
		t.Fatal(err)
	}
	incSeries, err := ReplayCtx(context.Background(), st, hookedMachine{inc, func(tick int) error {
		if err := tablesEqualCold(inc.State()); err != nil {
			return fmt.Errorf("incremental tables diverge from cold at tick %d: %w", tick, err)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}

	cf, cdemands, _, err := buildMXWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	cold := &coldIXPMachine{f: cf, demands: cdemands, country: "MX"}
	cold.f.EstablishSessions(cold.reg)
	coldSeries, err := ReplayCtx(context.Background(), st, cold)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderSeries(t, incSeries), renderSeries(t, coldSeries); got != want {
		t.Errorf("incremental observation series differs from cold replica:\n--- incremental\n%s--- cold\n%s", got, want)
	}
}

func TestStakeholderMachineBiasAndEscalation(t *testing.T) {
	newM := func() *StakeholderMachine {
		m, err := NewStakeholderMachine(7, 25, 0.05, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := newM()
	row0, err := m.Observe(0)
	if err != nil {
		t.Fatal(err)
	}
	attitude0, measured0 := row0[0], row0[1]
	if attitude0 < 0.4 || attitude0 > 0.6 {
		t.Fatalf("baseline attitude %v outside [0.4, 0.6]", attitude0)
	}
	// The sampling frame under-covers the low-attitude strata, so the
	// measured estimate runs high — the "not in the room" bias.
	if measured0 <= attitude0 {
		t.Fatalf("measured %v not above true attitude %v: frame bias missing", measured0, attitude0)
	}
	if m.Escalated() {
		t.Fatal("escalated at baseline")
	}
	// A hard negative shift drags the measurement below the threshold; the
	// machine escalates once and engagement coverage rises.
	if err := m.Apply(Event{Kind: KindStakeShift, Value: -0.45}); err != nil {
		t.Fatal(err)
	}
	row1, err := m.Observe(1)
	if err != nil {
		t.Fatal(err)
	}
	if row1[0] >= attitude0 {
		t.Fatalf("attitude did not drop under a -0.45 shift: %v -> %v", attitude0, row1[0])
	}
	if !m.Escalated() {
		t.Fatalf("measured %v did not trigger escalation below 0.5", row1[1])
	}
	if row1[3] <= row0[3] {
		t.Fatalf("engagement coverage did not rise on escalation: %v -> %v", row0[3], row1[3])
	}
	// Escalation is one-shot: another low tick leaves coverage unchanged.
	row2, err := m.Observe(2)
	if err != nil {
		t.Fatal(err)
	}
	if row2[3] != row1[3] {
		t.Fatalf("coverage moved again after the one-shot escalation: %v -> %v", row1[3], row2[3])
	}
	// Determinism: a fresh machine replaying the same events produces the
	// identical rows.
	m2 := newM()
	r0, _ := m2.Observe(0)
	if err := m2.Apply(Event{Kind: KindStakeShift, Value: -0.45}); err != nil {
		t.Fatal(err)
	}
	r1, _ := m2.Observe(1)
	for i := range row0 {
		if row0[i] != r0[i] || row1[i] != r1[i] {
			t.Fatalf("stakeholder machine not deterministic at column %d", i)
		}
	}
	// Foreign events are rejected; constructor bounds hold.
	if err := m.Apply(Event{Kind: KindRegulate, Name: "MX"}); err == nil {
		t.Error("stakeholder machine applied a regulate event")
	}
	if _, err := NewStakeholderMachine(1, 0, 0.1, 0.5); err == nil {
		t.Error("per-stratum 0 accepted")
	}
	if _, err := NewStakeholderMachine(1, 5, -0.1, 0.5); err == nil {
		t.Error("negative noise accepted")
	}
	if _, err := NewStakeholderMachine(1, 5, 0.1, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestCNMachineDemandScale(t *testing.T) {
	newM := func() *CNMachine {
		m, err := NewCNMachine(cn.ChurnConfig{Members: 8, Seed: 9}, &cn.CPR{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base, scaled := newM(), newM()
	if err := scaled.Apply(Event{Kind: KindCNDemand, Value: 2}); err != nil {
		t.Fatal(err)
	}
	b, err := base.Observe(0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scaled.Observe(0)
	if err != nil {
		t.Fatal(err)
	}
	// Offered load (column 1) scales exactly: the multiplier applies after
	// the RNG draw, so doubling the scale doubles the offered airtime without
	// perturbing the demand process.
	if s[1] != 2*b[1] {
		t.Fatalf("offered at scale 2 = %v, want exactly 2x %v", s[1], b[1])
	}
	// Out-of-range scales are rejected through the event path.
	for _, v := range []float64{0, -1, MaxDemandScale + 1} {
		if err := newM().Apply(Event{Kind: KindCNDemand, Value: v}); err == nil {
			t.Errorf("demand scale %v accepted", v)
		}
	}
	// Scale 1 is the exact identity: series bytes match an unscaled machine.
	ident := newM()
	if err := ident.Apply(Event{Kind: KindCNDemand, Value: 1}); err != nil {
		t.Fatal(err)
	}
	b1, _ := newM().Observe(0)
	i1, _ := ident.Observe(0)
	for j := range b1 {
		if b1[j] != i1[j] {
			t.Fatalf("scale 1 is not the identity at column %d: %v vs %v", j, b1[j], i1[j])
		}
	}
}

// TestComposedReplayContextCancel: a canceled context stops a composed
// replay at the next tick boundary with a wrapped context error.
func TestComposedReplayContextCancel(t *testing.T) {
	comp, st, err := composedFixture(17)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = comp.ReplayCtx(ctx, st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled composed replay returned %v", err)
	}
}
