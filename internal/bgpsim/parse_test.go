package bgpsim

import (
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

const sampleScenario = sampleTopo + `# events
withdraw 1000 pfx-1000
announce 2 pfx-1000
link- p2c 100 1000
link+ peer 100 1000
leak 100
leak 100
`

func TestParseScenarioSample(t *testing.T) {
	topo, events, err := ParseScenarioString(sampleScenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("parsed %d events, want 6", len(events))
	}
	// The returned topology is the base: events are not pre-applied.
	if !topo.hasOrigin(1000, "pfx-1000") {
		t.Fatal("base topology missing pre-event origin")
	}
	if !topo.HasProviderCustomer(100, 1000) {
		t.Fatal("base topology missing pre-event transit edge")
	}
	// Replaying the validated sequence through the incremental engine must
	// succeed and stay bit-identical to cold convergence at every step.
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
	topo, events, err := ParseScenarioString(sampleScenario)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatScenario(topo, events)
	topo2, events2, err := ParseScenarioString(text)
	if err != nil {
		t.Fatalf("re-parsing formatted scenario: %v\n%s", err, text)
	}
	if got := FormatScenario(topo2, events2); got != text {
		t.Fatalf("format/parse/format not stable:\n--- first ---\n%s\n--- second ---\n%s", text, got)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	base := "as 1\nas 2\npeer 1 2\norigin 1 p\n"
	cases := map[string]string{
		"base as after event":     base + "leak 1\nas 3\n",
		"base edge after event":   base + "withdraw 1 p\np2c 1 2\n",
		"base origin after event": base + "leak 1\norigin 2 q\n",
		"withdraw absent prefix":  base + "withdraw 2 p\n",
		"withdraw unknown AS":     base + "withdraw 9 p\n",
		"announce duplicate":      base + "announce 1 p\n",
		"link+ existing edge":     base + "link+ peer 1 2\n",
		"link+ self":              base + "link+ p2c 1 1\n",
		"link- missing edge":      base + "link- p2c 1 2\n",
		"link- wrong flavor":      base + "link- p2c 2 1\n",
		"leak unknown AS":         base + "leak 9\n",
		"link bad mode":           base + "link+ sibling 1 2\n",
		"link arity":              base + "link+ p2c 1\n",
		"withdraw arity":          base + "withdraw 1\n",
		"leak arity":              base + "leak\n",
		"event out of order":      base + "withdraw 1 p\nwithdraw 1 p\n",
	}
	for name, in := range cases {
		if _, _, err := ParseScenarioString(in); err == nil {
			t.Errorf("%s: ParseScenarioString(%q) succeeded, want error", name, in)
		}
	}
	// ParseTopology stays strict: event directives are unknown to it.
	for _, in := range []string{"as 1\norigin 1 p\nwithdraw 1 p\n", "as 1\nleak 1\n"} {
		if _, err := ParseTopologyString(in); err == nil {
			t.Errorf("ParseTopologyString(%q) accepted an event line", in)
		}
	}
	// A valid scenario re-checked: the same text parses via ParseScenario.
	if _, _, err := ParseScenarioString(base + "withdraw 1 p\nannounce 1 p\n"); err != nil {
		t.Errorf("inverse event pair should parse: %v", err)
	}
}

func TestParseTopologySample(t *testing.T) {
	topo, err := ParseTopologyString(sampleTopo)
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
	topo, err := ParseTopologyString(sampleTopo)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatTopology(topo)
	topo2, err := ParseTopologyString(text)
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
	}
	for name, in := range cases {
		if _, err := ParseTopologyString(in); err == nil {
			t.Errorf("%s: ParseTopologyString(%q) succeeded, want error", name, in)
		}
	}
}

func TestParseTopologyCommentsAndBlanks(t *testing.T) {
	topo, err := ParseTopologyString("\n# comment only\n  \nas 5 # trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.ASNs()); got != 1 {
		t.Fatalf("parsed %d ASes, want 1", got)
	}
}

// FuzzParseTopology drives the parser with arbitrary text; whenever a
// document parses, the compiled engine must match the reference fixpoint on
// the base topology, and any event lines must replay through the incremental
// engine bit-identically to cold convergence after every delta — the parser
// doubles as a scenario generator for both oracles. Seeds include shapes the
// property suite's generators produce (multihoming, lateral peering,
// leakers) plus event sequences over them.
func FuzzParseTopology(f *testing.F) {
	f.Add(sampleTopo)
	f.Add(sampleScenario)
	f.Add("as 1\n")
	f.Add("as 1\nas 2\npeer 1 2\norigin 1 p\norigin 2 p\n")
	f.Add("as 1\nas 2\nas 3\np2c 1 2\np2c 2 3\np2c 1 3\norigin 3 pfx\nleaker 2\n")
	f.Add("as 0\norigin 0 pfx-0\n")
	f.Add("# comment\n\nas 10 name\n")
	f.Add("as 1\nas 2\np2c 1 2\norigin 2 p\nwithdraw 2 p\nannounce 1 p\nlink- p2c 1 2\nlink+ peer 1 2\n")
	f.Add("as 1\nas 2\nas 3\np2c 1 2\np2c 1 3\norigin 3 q\nleak 2\nleak 3\nleak 2\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 2048 {
			return // bound convergence cost, not parser coverage
		}
		topo, events, err := ParseScenarioString(text)
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
		topo2, err := ParseTopologyString(FormatTopology(topo))
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
		if len(events) == 0 {
			return
		}
		// Event sequences replay through the incremental engine; after each
		// delta the live tables must be bit-identical to a cold convergence
		// of the mutated topology (the incremental oracle).
		c := convergeState(t, topo.Clone(), 1)
		for i, d := range events {
			if _, err := c.Apply(d); err != nil {
				t.Fatalf("event %d (%s) failed on replay after parse validated it: %v\n%s",
					i, FormatDelta(d), err, text)
			}
			if err := tablesEqualCold(c); err != nil {
				t.Fatalf("after event %d (%s): %v\n%s", i, FormatDelta(d), err, text)
			}
		}
		// And the whole scenario round-trips through its formatter.
		text2 := FormatScenario(topo, events)
		topo3, events3, err := ParseScenarioString(text2)
		if err != nil {
			t.Fatalf("formatted scenario does not re-parse: %v\n%s", err, text2)
		}
		if got := FormatScenario(topo3, events3); got != text2 {
			t.Fatalf("scenario format not stable:\n--- first ---\n%s\n--- second ---\n%s", text2, got)
		}
	})
}
