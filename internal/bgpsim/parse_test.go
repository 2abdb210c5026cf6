package bgpsim

import (
	"fmt"
	"strings"
	"testing"
)

const sampleTopo = `# three-tier sample
as 1 Tier1-A
as 2 Tier1-B
as 100 Mid
as 1000 Stub
peer 1 2
p2c 1 100
p2c 2 100
p2c 100 1000
origin 1000 pfx-1000
leaker 100
`

// sampleDeltas are delta lines over sampleTopo, one per line in the
// ParseDelta grammar. Timeline documents stamp such lines with @tick.
const sampleDeltas = `withdraw 1000 pfx-1000
announce 2 pfx-1000
link- p2c 100 1000
link+ peer 100 1000
leak 100
leak 100
`

// parseScenario reads a base topology and its delta lines.
func parseScenario(t *testing.T, base, deltas string) (*Topology, []Delta) {
	t.Helper()
	topo, err := ParseTopology(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	var events []Delta
	for _, line := range strings.Split(strings.TrimSpace(deltas), "\n") {
		fields := strings.Fields(line)
		d, err := ParseDelta(fields[0], fields[1:])
		if err != nil {
			t.Fatalf("delta %q: %v", line, err)
		}
		events = append(events, d)
	}
	return topo, events
}

// formatScenario renders a base topology followed by its delta lines.
func formatScenario(topo *Topology, events []Delta) (base, deltas string) {
	var b strings.Builder
	for _, d := range events {
		b.WriteString(FormatDelta(d))
		b.WriteByte('\n')
	}
	return FormatTopology(topo), b.String()
}

func TestParseScenarioSample(t *testing.T) {
	topo, events := parseScenario(t, sampleTopo, sampleDeltas)
	if len(events) != 6 {
		t.Fatalf("parsed %d events, want 6", len(events))
	}
	// The parsed topology is the base: events are not pre-applied.
	if !topo.hasOrigin(1000, "pfx-1000") {
		t.Fatal("base topology missing pre-event origin")
	}
	if !topo.HasProviderCustomer(100, 1000) {
		t.Fatal("base topology missing pre-event transit edge")
	}
	// Replaying the sequence through the incremental engine must succeed
	// and stay bit-identical to cold convergence at every step.
	c := convergeState(t, topo, 1)
	for i, d := range events {
		if _, err := c.Apply(d); err != nil {
			t.Fatalf("replaying event %d (%s): %v", i, FormatDelta(d), err)
		}
		assertTablesMatchCold(t, FormatDelta(d), c)
	}
	if !c.Topology().HasPeer(100, 1000) {
		t.Error("link+ peer event not applied on replay")
	}
	// The base marks 100 as a leaker; two toggles restore that flag.
	if !c.Topology().IsLeaker(100) {
		t.Error("double leak toggle should restore the base leaker flag")
	}
}

func TestParseScenarioRoundTrip(t *testing.T) {
	base, deltas := formatScenario(parseScenario(t, sampleTopo, sampleDeltas))
	base2, deltas2 := formatScenario(parseScenario(t, base, deltas))
	if base2+deltas2 != base+deltas {
		t.Fatalf("format/parse/format not stable:\n--- first ---\n%s%s\n--- second ---\n%s%s",
			base, deltas, base2, deltas2)
	}
}

func TestParseTopologySample(t *testing.T) {
	topo, err := ParseTopology(strings.NewReader(sampleTopo))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.ASNs()); got != 4 {
		t.Fatalf("parsed %d ASes, want 4", got)
	}
	if !topo.HasPeer(1, 2) {
		t.Error("peer 1 2 not applied")
	}
	if !topo.IsLeaker(100) {
		t.Error("leaker 100 not applied")
	}
	rt := converge(t, topo, 1)
	if !rt.Reachable(1, "pfx-1000") {
		t.Error("converged topology cannot reach the stub prefix")
	}
}

func TestParseTopologyRoundTrip(t *testing.T) {
	topo, err := ParseTopology(strings.NewReader(sampleTopo))
	if err != nil {
		t.Fatal(err)
	}
	text := FormatTopology(topo)
	topo2, err := ParseTopology(strings.NewReader(text))
	if err != nil {
		t.Fatalf("re-parsing formatted topology: %v\n%s", err, text)
	}
	if FormatTopology(topo2) != text {
		t.Fatalf("format/parse/format not stable:\n--- first ---\n%s\n--- second ---\n%s",
			text, FormatTopology(topo2))
	}
	ref1 := topo.convergeReference()
	ref2 := topo2.convergeReference()
	for n, tbl := range ref1 {
		for pfx, want := range tbl {
			if !routesEqual(ref2[n][pfx], want) {
				t.Fatalf("round-tripped topology routes differently at AS %d prefix %s", n, pfx)
			}
		}
	}
}

func TestParseTopologyErrors(t *testing.T) {
	var tooMany strings.Builder
	for n := 0; n <= maxParseASes; n++ {
		fmt.Fprintf(&tooMany, "as %d\n", n)
	}
	cases := map[string]string{
		"unknown directive": "frob 1 2\n",
		"bad ASN":           "as x\n",
		"negative ASN":      "as -3\n",
		"huge ASN":          "as 99999999999999999999\n",
		"duplicate AS":      "as 1\nas 1\n",
		"p2c unknown AS":    "as 1\np2c 1 2\n",
		"peer arity":        "as 1\npeer 1\n",
		"origin arity":      "as 1\norigin 1\n",
		"leaker unknown":    "leaker 7\n",
		"long line":         "as 1 " + strings.Repeat("x", 4096) + "\n",
		"too many ASes":     tooMany.String(),
		// Delta lines belong to timeline documents, not topologies.
		"withdraw line": "as 1\norigin 1 p\nwithdraw 1 p\n",
		"leak line":     "as 1\nleak 1\n",
	}
	for name, in := range cases {
		if _, err := ParseTopology(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ParseTopology(%q) succeeded, want error", name, in)
		}
	}
}

func TestParseTopologyCommentsAndBlanks(t *testing.T) {
	topo, err := ParseTopology(strings.NewReader("\n# comment only\n  \nas 5 # trailing comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.ASNs()); got != 1 {
		t.Fatalf("parsed %d ASes, want 1", got)
	}
}

// FuzzParseTopology drives the parser with arbitrary text; whenever a
// document parses, the compiled engine must match the reference fixpoint on
// it, and the formatted topology must re-parse to one that routes
// identically. Seeds include shapes the property suite's generators produce
// (multihoming, lateral peering, leakers). Delta sequences over topologies
// are timeline documents, fuzzed by the timeline package's FuzzParseStream.
func FuzzParseTopology(f *testing.F) {
	f.Add(sampleTopo)
	f.Add("as 1 Tier1-A\nas 2 Tier1-B\nas 100 Mid\nas 1000 Stub\npeer 1 2\np2c 1 100\np2c 2 100\npeer 100 1000\norigin 2 pfx-1000\nleaker 100\n")
	f.Add("as 1\n")
	f.Add("as 1\nas 2\npeer 1 2\norigin 1 p\norigin 2 p\n")
	f.Add("as 1\nas 2\nas 3\np2c 1 2\np2c 2 3\np2c 1 3\norigin 3 pfx\nleaker 2\n")
	f.Add("as 0\norigin 0 pfx-0\n")
	f.Add("# comment\n\nas 10 name\n")
	f.Add("as 1\nas 2\np2c 1 2\norigin 2 p\n")
	f.Add("as 1\nas 2\nas 3\np2c 1 2\np2c 1 3\norigin 3 q\nleaker 3\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 2048 {
			return // bound convergence cost, not parser coverage
		}
		topo, err := ParseTopology(strings.NewReader(text))
		if err != nil {
			return
		}
		rt := converge(t, topo, 1)
		ref := topo.convergeReference()
		for _, n := range topo.ASNs() {
			for pfx := range ref[n] {
				if !routesEqual(rt.Route(n, pfx), ref[n][pfx]) {
					t.Fatalf("engine diverges from reference at AS %d prefix %q on:\n%s", n, pfx, text)
				}
			}
		}
		// The format must re-parse to an identically-routing topology.
		topo2, err := ParseTopology(strings.NewReader(FormatTopology(topo)))
		if err != nil {
			t.Fatalf("formatted topology does not re-parse: %v\n%s", err, FormatTopology(topo))
		}
		ref2 := topo2.convergeReference()
		for n, tbl := range ref {
			for pfx, want := range tbl {
				if !routesEqual(ref2[n][pfx], want) {
					t.Fatalf("round-trip changes routing at AS %d prefix %q on:\n%s", n, pfx, text)
				}
			}
		}
	})
}

// TestDeltaKindTable: each DeltaKind's keyword is its String and parses back
// to the kind, and inverse is an involution.
func TestDeltaKindTable(t *testing.T) {
	for i, row := range deltaKinds {
		k := DeltaKind(i)
		if k.String() != row.keyword {
			t.Errorf("DeltaKind(%d).String() = %q, want %q", i, k, row.keyword)
		}
		d := Delta{Kind: k, A: 1, B: 2, Prefix: "p"}
		if d.inverse().inverse() != d {
			t.Errorf("%s: inverse is not an involution (inverse %s)", k, d.inverse().Kind)
		}
		fields := strings.Fields(FormatDelta(d))
		if got, err := ParseDelta(fields[0], fields[1:]); err != nil || got.Kind != k {
			t.Errorf("%s: %q parses to %v, %v", k, FormatDelta(d), got.Kind, err)
		}
	}
	if got := DeltaKind(len(deltaKinds)).String(); got != "DeltaKind(5)" {
		t.Errorf("unknown delta kind renders as %q", got)
	}
}
