package timeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bgpsim"
	"repro/internal/cn"
	"repro/internal/experiment"
	"repro/internal/ixp"
	"repro/internal/rng"
)

// buildTestHierarchy is the shared small world for engine tests.
func buildTestHierarchy(t *testing.T, seed uint64, mids, stubs int) *bgpsim.Hierarchy {
	t.Helper()
	h, err := bgpsim.BuildHierarchyOpts(rng.New(seed), bgpsim.HierarchyOpts{NMid: mids, NStub: stubs})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// renderSeries renders a series the way scenarios do, so byte comparisons in
// tests see exactly what reports and served responses see.
func renderSeries(t *testing.T, s *Series) string {
	t.Helper()
	res := &experiment.Result{ID: "T", Title: "test series"}
	s.Table(res, "T", "test series")
	return experiment.RenderMarkdown([]*experiment.Result{res})
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindBGP:         "bgp",
		KindCNFail:      "fail",
		KindCNRepair:    "repair",
		KindIXPJoin:     "join",
		KindIXPLeave:    "leave",
		KindRegulate:    "regulate",
		KindCNDemand:    "demand",
		KindIXPPressure: "pressure",
		KindStakeShift:  "stake-shift",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind renders as %q", got)
	}
}

// fullPayload returns a valid event of kind k with every field of its
// payload set to a non-zero value.
func fullPayload(k Kind) Event {
	e := Event{At: 1, Kind: k}
	p := kindTable[k].payload
	if p&pDelta != 0 {
		e.Delta = bgpsim.Delta{Kind: bgpsim.DeltaLinkUp, A: 2, B: 3, Peer: true}
	}
	if p&pName != 0 {
		e.Name = "IX"
	}
	if p&pASN != 0 {
		e.ASN = 7
	}
	if p&pPolicy != 0 {
		e.Policy = ixp.Selective
	}
	if p&pNode != 0 {
		e.Node = 3
	}
	if p&pValue != 0 {
		e.Value = 0.5
	}
	return e
}

// TestKindTableIsComplete: every Kind has a row with a keyword, inverses
// pair up, each kind's canonical line parses back to the same event, and
// the four machines' Kinds() partition the table, so every kind has exactly
// one consumer.
func TestKindTableIsComplete(t *testing.T) {
	if len(kindTable) != int(KindStakeShift)+1 {
		t.Fatalf("kindTable has %d rows, want %d", len(kindTable), int(KindStakeShift)+1)
	}
	for i, r := range kindTable {
		k := Kind(i)
		if r.keyword == "" {
			t.Errorf("Kind(%d) has no keyword", i)
		}
		if r.inverse != noKind && kindTable[r.inverse].inverse != k {
			t.Errorf("%s: inverse %s is not inverted back", k, r.inverse)
		}
		e := fullPayload(k)
		if e.fields() != r.payload {
			t.Errorf("%s: fixture sets fields %06b, payload is %06b", k, e.fields(), r.payload)
		}
		line := fmt.Sprintf("@%d %s\n", e.At, formatEvent(e))
		st, err := ParseStream(strings.NewReader(line))
		if err != nil {
			t.Errorf("%s: %q does not parse: %v", k, line, err)
			continue
		}
		if got := st.Events[0]; got != e {
			t.Errorf("%s: %q parses to %+v, want %+v", k, line, got, e)
		}
	}
	owner := map[Kind]string{}
	for name, m := range map[string]Machine{
		"bgp": &BGPMachine{}, "cn": &CNMachine{}, "ixp": &IXPMachine{}, "stakeholder": &StakeholderMachine{},
	} {
		for _, k := range m.Kinds() {
			if prev, dup := owner[k]; dup {
				t.Errorf("%s is consumed by both %s and %s", k, prev, name)
			}
			owner[k] = name
		}
	}
	for i := range kindTable {
		if _, ok := owner[Kind(i)]; !ok {
			t.Errorf("%s has no consuming machine", Kind(i))
		}
	}
	if len(owner) != len(kindTable) {
		t.Errorf("machines consume %d kinds, the table has %d", len(owner), len(kindTable))
	}
}

// TestEventValidateRejectsFieldsOutsidePayload: for every kind, an
// otherwise valid event with one field set outside its payload fails
// validation, and with none it passes.
func TestEventValidateRejectsFieldsOutsidePayload(t *testing.T) {
	outside := map[payload]func(*Event){
		pDelta:  func(e *Event) { e.Delta = bgpsim.Delta{Kind: bgpsim.DeltaAnnounce, A: 1, Prefix: "p"} },
		pName:   func(e *Event) { e.Name = "x" },
		pASN:    func(e *Event) { e.ASN = 9 },
		pPolicy: func(e *Event) { e.Policy = ixp.Restrictive },
		pNode:   func(e *Event) { e.Node = 1 },
		pValue:  func(e *Event) { e.Value = 0.25 },
	}
	for i, r := range kindTable {
		e := fullPayload(Kind(i))
		if err := e.validate(); err != nil {
			t.Errorf("%s: full payload %+v rejected: %v", e.Kind, e, err)
		}
		for field, set := range outside {
			if r.payload&field != 0 {
				continue
			}
			bad := e
			set(&bad)
			if err := bad.validate(); err == nil {
				t.Errorf("%s: %+v sets a field outside its payload, validated", e.Kind, bad)
			}
		}
	}
}

func TestEventValidateRejects(t *testing.T) {
	cases := map[string]Event{
		"negative tick": {At: -1, Kind: KindCNFail},
		"bad kind":      {Kind: Kind(42)},
		"bad delta":     {Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaKind(9)}},
		"negative node": {Kind: KindCNFail, Node: -2},
		"empty name":    {Kind: KindIXPJoin, Policy: ixp.Open},
		"spacey name":   {Kind: KindRegulate, Name: "two words"},
		"hash name":     {Kind: KindRegulate, Name: "a#b"},
		"long name":     {Kind: KindIXPLeave, Name: strings.Repeat("x", 65)},
		"negative ASN":  {Kind: KindIXPLeave, Name: "IX", ASN: -1},
		"bad policy":    {Kind: KindIXPJoin, Name: "IX", Policy: ixp.PeeringPolicy(7)},
		"named fail":    {Kind: KindCNFail, Node: 1, Name: "x"},
	}
	for name, ev := range cases {
		if err := ev.validate(); err == nil {
			t.Errorf("%s: event %+v validated, want error", name, ev)
		}
	}
}

func TestCanonicalizeOrdersWithinTick(t *testing.T) {
	in := Stream{Horizon: 4, Events: []Event{
		{At: 2, Kind: KindRegulate, Name: "MX"},
		{At: 2, Kind: KindIXPLeave, Name: "IX", ASN: 5},
		{At: 2, Kind: KindIXPJoin, Name: "IX", ASN: 9, Policy: ixp.Open},
		{At: 1, Kind: KindCNRepair, Node: 3},
		{At: 1, Kind: KindCNFail, Node: 7},
		{At: 0, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaAnnounce, A: 2, Prefix: "p"}},
		{At: 0, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaWithdraw, A: 1, Prefix: "p"}},
	}}
	got := in.Canonicalize().Events
	wantKinds := []Kind{KindBGP, KindBGP, KindCNFail, KindCNRepair, KindIXPJoin, KindIXPLeave, KindRegulate}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Fatalf("position %d: kind %s, want %s (full: %+v)", i, got[i].Kind, k, got)
		}
	}
	// Within-tick BGP order: the withdraw applies before the announce, which
	// is what makes a same-tick prefix migration replayable.
	if got[0].Delta.Kind != bgpsim.DeltaWithdraw || got[1].Delta.Kind != bgpsim.DeltaAnnounce {
		t.Fatalf("BGP deltas out of order: %+v then %+v", got[0].Delta, got[1].Delta)
	}
	// Canonicalize is idempotent.
	once := in.Canonicalize()
	twice := once.Canonicalize()
	for i := range once.Events {
		if once.Events[i] != twice.Events[i] {
			t.Fatalf("canonicalize not idempotent at %d: %+v vs %+v", i, once.Events[i], twice.Events[i])
		}
	}
}

func TestStreamValidateBounds(t *testing.T) {
	if err := (Stream{Horizon: 0}).Validate(); err == nil {
		t.Error("zero horizon validated")
	}
	if err := (Stream{Horizon: MaxHorizon + 1}).Validate(); err == nil {
		t.Error("oversized horizon validated")
	}
	if err := (Stream{Horizon: 1, Events: make([]Event, MaxEvents+1)}).Validate(); err == nil {
		t.Error("oversized event list validated")
	}
	past := Stream{Horizon: 2, Events: []Event{{At: 2, Kind: KindCNFail, Node: 1}}}
	if err := past.Validate(); err == nil {
		t.Error("event at tick >= horizon validated")
	}
	ok := Stream{Horizon: 3, Events: []Event{{At: 2, Kind: KindCNFail, Node: 1}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
}

func TestMergeUnionsUnderLongestHorizon(t *testing.T) {
	a := Stream{Horizon: 3, Events: []Event{{At: 2, Kind: KindCNFail, Node: 1}}}
	b := Stream{Horizon: 7, Events: []Event{{At: 1, Kind: KindCNRepair, Node: 0}}}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Horizon != 7 || len(m.Events) != 2 {
		t.Fatalf("merge = horizon %d, %d events; want 7, 2", m.Horizon, len(m.Events))
	}
	if m.Events[0].At != 1 || m.Events[1].At != 2 {
		t.Fatalf("merged events not canonical: %+v", m.Events)
	}
}

// TestGenFlapStormIsNetZero pins the generator contract: every down has a
// matching restore inside the horizon, so the storm leaves the world as it
// found it, and the whole stream replays through the incremental engine.
func TestGenFlapStormIsNetZero(t *testing.T) {
	h := buildTestHierarchy(t, 11, 4, 9)
	st, err := GenFlapStorm(h, 99, 16, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Events) == 0 {
		t.Fatal("storm generated no events")
	}
	counts := map[bgpsim.DeltaKind]int{}
	for _, e := range st.Events {
		if e.Kind != KindBGP {
			t.Fatalf("flap storm emitted non-BGP event %+v", e)
		}
		counts[e.Delta.Kind]++
	}
	if counts[bgpsim.DeltaWithdraw] != counts[bgpsim.DeltaAnnounce] {
		t.Fatalf("unbalanced prefix flaps: %d withdraws, %d announces",
			counts[bgpsim.DeltaWithdraw], counts[bgpsim.DeltaAnnounce])
	}
	if counts[bgpsim.DeltaLinkDown] != counts[bgpsim.DeltaLinkUp] {
		t.Fatalf("unbalanced link flaps: %d downs, %d ups",
			counts[bgpsim.DeltaLinkDown], counts[bgpsim.DeltaLinkUp])
	}
	m, err := NewBGPMachine(context.Background(), h.Topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	series, err := ReplayCtx(context.Background(), st, m)
	if err != nil {
		t.Fatal(err)
	}
	// Net-zero: the last tick's reachability equals a fresh build's.
	fresh := buildTestHierarchy(t, 11, 4, 9)
	rt, err := fresh.Topo.ConvergeCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantReach, _ := rt.ReachableCells()
	last := series.Rows[len(series.Rows)-1]
	if int(last[2]) != wantReach {
		t.Fatalf("final reachable = %d, fresh topology has %d", int(last[2]), wantReach)
	}
}

func TestGenPrefixMigrationTracksHolder(t *testing.T) {
	h := buildTestHierarchy(t, 7, 4, 9)
	st, err := GenPrefixMigration(h, 5, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Events) == 0 {
		t.Fatal("migration generated no events")
	}
	m, err := NewBGPMachine(context.Background(), h.Topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayCtx(context.Background(), st, m); err != nil {
		t.Fatalf("generated migration does not replay: %v", err)
	}
}

// TestGenCNChurnFitsEventLimit: a churn that would fail members past the
// event limit stops failing them while their scheduled repairs still fit,
// so the stream, repairs included, holds at most MaxEvents events and every
// fail is repaired or lands too late to be.
func TestGenCNChurnFitsEventLimit(t *testing.T) {
	const ticks, repairAfter = MaxHorizon, 2
	st, err := GenCNChurn(24, 3, ticks, 0.5, repairAfter)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	down := make(map[int]int) // member → tick of its unrepaired fail
	for _, e := range st.Events {
		switch e.Kind {
		case KindCNFail:
			down[e.Node] = e.At
		case KindCNRepair:
			delete(down, e.Node)
		}
	}
	for m, at := range down {
		if at+repairAfter < ticks {
			t.Fatalf("member %d failed at tick %d and is never repaired", m, at)
		}
	}
}

func TestGenCNChurnReplaysStrictly(t *testing.T) {
	st, err := GenCNChurn(12, 3, 20, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Events) == 0 {
		t.Fatal("churn generated no events")
	}
	m, err := NewCNMachine(cn.ChurnConfig{Members: 12, CapacityFactor: 0.6, Seed: 3}, &cn.CPR{})
	if err != nil {
		t.Fatal(err)
	}
	series, err := ReplayCtx(context.Background(), st, m)
	if err != nil {
		t.Fatalf("generated churn does not replay: %v", err)
	}
	for i, row := range series.Rows {
		if row[0] < 1 || row[0] > 12 {
			t.Fatalf("tick %d: up count %v outside [1, 12]", i, row[0])
		}
	}
}

func TestGenStagedRolloutWaves(t *testing.T) {
	members := []bgpsim.ASN{10, 11, 12, 13, 14}
	st, err := GenStagedRollout("IX", members, ixp.Open, 2, 1, 3, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Events) != len(members) {
		t.Fatalf("rollout scheduled %d joins, want %d", len(st.Events), len(members))
	}
	seen := map[bgpsim.ASN]bool{}
	for i, e := range st.Events {
		if e.Kind != KindIXPJoin || e.Name != "IX" {
			t.Fatalf("event %d is %+v, want an IX join", i, e)
		}
		if seen[e.ASN] {
			t.Fatalf("AS %d joined twice", e.ASN)
		}
		seen[e.ASN] = true
		if wave := (e.At - 1) / 3; e.At != 1+wave*3 {
			t.Fatalf("event %d at tick %d, not on the wave grid", i, e.At)
		}
	}
}

func TestMachinesRejectForeignEvents(t *testing.T) {
	h := buildTestHierarchy(t, 1, 3, 6)
	bm, err := NewBGPMachine(context.Background(), h.Topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.Apply(Event{Kind: KindCNFail, Node: 1}); err == nil {
		t.Error("BGP machine applied a CN event")
	}
	cm, err := NewCNMachine(cn.ChurnConfig{Members: 4, CapacityFactor: 0.6, Seed: 1}, cn.Proportional{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Apply(Event{Kind: KindRegulate, Name: "MX"}); err == nil {
		t.Error("CN machine applied a regulate event")
	}
	if err := cm.Apply(Event{Kind: KindCNFail, Node: 2}); err != nil {
		t.Fatalf("first fail: %v", err)
	}
	if err := cm.Apply(Event{Kind: KindCNFail, Node: 2}); err == nil {
		t.Error("CN machine failed an already-down member")
	}
}

func TestIXPMachineStrictMembership(t *testing.T) {
	topo := bgpsim.NewTopology()
	for _, n := range []bgpsim.ASN{1, 2} {
		if err := topo.AddAS(n, bgpsim.ASInfo{Country: "MX"}); err != nil {
			t.Fatal(err)
		}
	}
	f := ixp.NewFabric(topo)
	if _, err := f.AddIXP("IX", "MX"); err != nil {
		t.Fatal(err)
	}
	m, err := NewIXPMachine(context.Background(), f, nil, "MX", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Event{Kind: KindIXPJoin, Name: "nope", ASN: 1, Policy: ixp.Open}); err == nil {
		t.Error("join of unknown IXP applied")
	}
	if err := m.Apply(Event{Kind: KindIXPLeave, Name: "IX", ASN: 1}); err == nil {
		t.Error("leave by a non-member applied")
	}
	if err := m.Apply(Event{Kind: KindIXPJoin, Name: "IX", ASN: 1, Policy: ixp.Open}); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := m.Apply(Event{Kind: KindIXPJoin, Name: "IX", ASN: 1, Policy: ixp.Open}); err == nil {
		t.Error("double join applied")
	}
}

func TestSeriesTableRendersPrecision(t *testing.T) {
	s := &Series{
		Cols: []Col{{Name: "count", Prec: -1}, {Name: "share", Prec: 3}},
		Rows: [][]float64{{4, 0.5}, {7, 0.125}},
	}
	md := renderSeries(t, s)
	for _, want := range []string{"| tick | count | share |", "| 0 | 4 | 0.500 |", "| 1 | 7 | 0.125 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("rendered table missing %q:\n%s", want, md)
		}
	}
}

func TestReplayRejectsUnknownTickEvents(t *testing.T) {
	h := buildTestHierarchy(t, 2, 3, 6)
	m, err := NewBGPMachine(context.Background(), h.Topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := Stream{Horizon: 2, Events: []Event{
		{At: 1, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaWithdraw, A: 1, Prefix: "no-such"}},
	}}
	if _, err := ReplayCtx(context.Background(), bad, m); err == nil {
		t.Fatal("replay of an inapplicable delta succeeded")
	}
	// The failed replay must not leave the machine half-applied.
	if m.Applied() != 0 {
		t.Fatalf("failed replay left %d applied patches", m.Applied())
	}
}
