package ixp

import (
	"context"
	"testing"

	"repro/internal/bgpsim"
)

// converge runs the serial cold convergence of the fabric's topology.
func converge(t *testing.T, f *Fabric) *bgpsim.RoutingTables {
	t.Helper()
	rt, err := f.Topo.ConvergeCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// twoISPFabric builds two MX ISPs under a US transit, with one MX IXP.
func twoISPFabric(t *testing.T) (*Fabric, bgpsim.ASN, bgpsim.ASN) {
	t.Helper()
	topo := bgpsim.NewTopology()
	for _, spec := range []struct {
		n    bgpsim.ASN
		info bgpsim.ASInfo
	}{
		{1, bgpsim.ASInfo{Name: "T", Country: "US"}},
		{10, bgpsim.ASInfo{Name: "A", Country: "MX"}},
		{20, bgpsim.ASInfo{Name: "B", Country: "MX"}},
	} {
		if err := topo.AddAS(spec.n, spec.info); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []bgpsim.ASN{10, 20} {
		if err := topo.AddProviderCustomer(1, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.Originate(10, "pa"); err != nil {
		t.Fatal(err)
	}
	if err := topo.Originate(20, "pb"); err != nil {
		t.Fatal(err)
	}
	f := NewFabric(topo)
	if _, err := f.AddIXP("X", "MX"); err != nil {
		t.Fatal(err)
	}
	return f, 10, 20
}

func TestJoinValidation(t *testing.T) {
	f, a, _ := twoISPFabric(t)
	if err := f.Join("nope", a, Open); err == nil {
		t.Error("join to unknown IXP accepted")
	}
	if err := f.Join("X", 999, Open); err == nil {
		t.Error("join of unknown AS accepted")
	}
	if _, err := f.AddIXP("X", "MX"); err == nil {
		t.Error("duplicate IXP accepted")
	}
}

func TestOpenOpenEstablishes(t *testing.T) {
	f, a, b := twoISPFabric(t)
	_ = f.Join("X", a, Open)
	_ = f.Join("X", b, Open)
	n := f.EstablishSessions(Regulation{})
	if n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}
	if !f.Topo.HasPeer(a, b) {
		t.Error("peer edge missing")
	}
	if f.SessionIXP(a, b) != "X" || f.SessionIXP(b, a) != "X" {
		t.Error("session not attributed to X")
	}
}

func TestRestrictiveRefuses(t *testing.T) {
	f, a, b := twoISPFabric(t)
	_ = f.Join("X", a, Open)
	_ = f.Join("X", b, Restrictive)
	if n := f.EstablishSessions(Regulation{}); n != 0 {
		t.Fatalf("sessions = %d, want 0", n)
	}
}

func TestSelectiveAllowlist(t *testing.T) {
	f, a, b := twoISPFabric(t)
	_ = f.Join("X", a, Selective, b)
	_ = f.Join("X", b, Selective) // empty allowlist
	if n := f.EstablishSessions(Regulation{}); n != 0 {
		t.Fatalf("one-sided selective created %d sessions", n)
	}
	_ = f.Join("X", b, Selective, a)
	if n := f.EstablishSessions(Regulation{}); n != 1 {
		t.Fatalf("mutual selective created %d sessions, want 1", n)
	}
}

func TestRegulationForcesRestrictive(t *testing.T) {
	f, a, b := twoISPFabric(t)
	_ = f.Join("X", a, Restrictive)
	_ = f.Join("X", b, Restrictive)
	reg := Regulation{Country: "MX", MandatoryPeering: true}
	if n := f.EstablishSessions(reg); n != 1 {
		t.Fatalf("regulated sessions = %d, want 1", n)
	}
}

func TestRegulationScopedByCountry(t *testing.T) {
	f, a, b := twoISPFabric(t)
	_ = f.Join("X", a, Restrictive)
	_ = f.Join("X", b, Restrictive)
	reg := Regulation{Country: "BR", MandatoryPeering: true}
	if n := f.EstablishSessions(reg); n != 0 {
		t.Fatalf("foreign regulation created %d sessions", n)
	}
}

func TestEstablishSessionsIdempotent(t *testing.T) {
	f, a, b := twoISPFabric(t)
	_ = f.Join("X", a, Open)
	_ = f.Join("X", b, Open)
	f.EstablishSessions(Regulation{})
	if n := f.EstablishSessions(Regulation{}); n != 0 {
		t.Fatalf("re-establish created %d sessions", n)
	}
}

func TestLeave(t *testing.T) {
	f, a, b := twoISPFabric(t)
	_ = f.Join("X", a, Open)
	_ = f.Join("X", b, Open)
	f.Leave("X", b)
	x, _ := f.IXP("X")
	if x.HasMember(b) {
		t.Error("member not removed")
	}
	if n := f.EstablishSessions(Regulation{}); n != 0 {
		t.Fatalf("sessions after leave = %d", n)
	}
}

func TestClassifyPathDomesticVsInternational(t *testing.T) {
	f, a, b := twoISPFabric(t)
	// Without peering, a reaches b's prefix via the US transit.
	rt := converge(t, f)
	rep := f.ClassifyPath(rt, Demand{Src: a, Prefix: "pb", Volume: 1}, "MX")
	if !rep.Reach || rep.Domestic {
		t.Fatalf("transit path should be reachable and international: %+v", rep)
	}
	// With IXP peering the path becomes domestic and attributed to X.
	_ = f.Join("X", a, Open)
	_ = f.Join("X", b, Open)
	f.EstablishSessions(Regulation{})
	rt = converge(t, f)
	rep = f.ClassifyPath(rt, Demand{Src: a, Prefix: "pb", Volume: 1}, "MX")
	if !rep.Domestic {
		t.Fatalf("peered path should be domestic: %+v", rep)
	}
	if len(rep.IXPs) != 1 || rep.IXPs[0] != "X" {
		t.Errorf("path IXPs = %v, want [X]", rep.IXPs)
	}
}

func TestLocalityAggregation(t *testing.T) {
	f, a, b := twoISPFabric(t)
	_ = f.Join("X", a, Open)
	_ = f.Join("X", b, Open)
	f.EstablishSessions(Regulation{})
	rt := converge(t, f)
	demands := []Demand{
		{Src: a, Prefix: "pb", Volume: 3},
		{Src: b, Prefix: "pa", Volume: 1},
		{Src: 1, Prefix: "pa", Volume: 100}, // foreign source: skipped
	}
	res := f.Locality(rt, demands, "MX")
	if res.TotalVolume != 4 {
		t.Errorf("total = %g, want 4 (foreign demand skipped)", res.TotalVolume)
	}
	if res.DomesticShare() != 1 {
		t.Errorf("domestic share = %g, want 1", res.DomesticShare())
	}
	if res.VolumeByIXP["X"] != 4 {
		t.Errorf("IXP volume = %g, want 4", res.VolumeByIXP["X"])
	}
}

func TestLocalityUnreachable(t *testing.T) {
	f, a, _ := twoISPFabric(t)
	rt := converge(t, f)
	res := f.Locality(rt, []Demand{{Src: a, Prefix: "missing", Volume: 1}}, "MX")
	if res.UnreachableCount != 1 || res.ReachableVolume != 0 {
		t.Errorf("unreachable accounting wrong: %+v", res)
	}
	if res.DomesticShare() != 0 {
		t.Errorf("empty domestic share = %g", res.DomesticShare())
	}
}

func TestPriorityAttribution(t *testing.T) {
	f, a, b := twoISPFabric(t)
	far, err := f.AddIXP("FAR", "DE")
	if err != nil {
		t.Fatal(err)
	}
	far.Priority = 1
	_ = f.Join("X", a, Open)
	_ = f.Join("X", b, Open)
	_ = f.Join("FAR", a, Open)
	_ = f.Join("FAR", b, Open)
	f.EstablishSessions(Regulation{})
	if got := f.SessionIXP(a, b); got != "X" {
		t.Errorf("session attributed to %q, want local X", got)
	}
}

func TestPolicyString(t *testing.T) {
	if Open.String() != "open" || Restrictive.String() != "restrictive" || Selective.String() != "selective" {
		t.Error("policy strings wrong")
	}
}
