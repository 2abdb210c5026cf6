package timeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bgpsim"
)

// tablesEqualCold compares the live incremental tables of c against a cold
// full convergence of its (mutated) topology — the replay oracle, cell by
// cell through the exported accessors.
func tablesEqualCold(c *bgpsim.Converged) error {
	live := c.Tables()
	cold, err := c.Topology().ConvergeCtx(context.Background(), 1)
	if err != nil {
		return err
	}
	for _, n := range c.Topology().ASNs() {
		lp, cp := live.Prefixes(n), cold.Prefixes(n)
		if len(lp) != len(cp) {
			return fmt.Errorf("AS %d: live reaches %d prefixes, cold %d", n, len(lp), len(cp))
		}
		for i := range lp {
			if lp[i] != cp[i] {
				return fmt.Errorf("AS %d: prefix list diverges at %d: %q vs %q", n, i, lp[i], cp[i])
			}
		}
		for _, pfx := range lp {
			lr, cr := live.Route(n, pfx), cold.Route(n, pfx)
			if lr.Learned != cr.Learned || len(lr.Path) != len(cr.Path) {
				return fmt.Errorf("AS %d prefix %s: live %+v, cold %+v", n, pfx, lr, cr)
			}
			for i := range lr.Path {
				if lr.Path[i] != cr.Path[i] {
					return fmt.Errorf("AS %d prefix %s: path diverges at hop %d: %v vs %v", n, pfx, i, lr.Path, cr.Path)
				}
			}
		}
	}
	return nil
}

// readTestdata returns every .timeline script in testdata, keyed by filename.
func readTestdata(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.timeline"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata timeline scripts found")
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = string(data)
	}
	return out
}

func TestParseDocRoundTripsTestdata(t *testing.T) {
	for name, text := range readTestdata(t) {
		doc, err := ParseDoc(strings.NewReader(text))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		formatted := FormatDoc(doc)
		doc2, err := ParseDoc(strings.NewReader(formatted))
		if err != nil {
			t.Errorf("%s: canonical form does not re-parse: %v\n%s", name, err, formatted)
			continue
		}
		if again := FormatDoc(doc2); again != formatted {
			t.Errorf("%s: format not stable:\n--- first ---\n%s\n--- second ---\n%s", name, formatted, again)
		}
	}
}

func TestParseDocFlapstormReplays(t *testing.T) {
	scripts := readTestdata(t)
	doc, err := ParseDoc(strings.NewReader(scripts["flapstorm.timeline"]))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Topo == nil {
		t.Fatal("flapstorm script lost its base topology")
	}
	m, err := NewBGPMachine(context.Background(), doc.Topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	series, err := ReplayCtx(context.Background(), doc.Stream, hookedMachine{m, func(int) error { return tablesEqualCold(m.State()) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Rows) != doc.Stream.Horizon {
		t.Fatalf("replay produced %d rows, want %d", len(series.Rows), doc.Stream.Horizon)
	}
}

func TestParseStreamErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive":    "frob 1\n",
		"base in stream":       "as 1\n",
		"bad tick":             "@x fail 1\n",
		"negative tick":        "@-1 fail 1\n",
		"huge tick":            fmt.Sprintf("@%d fail 1\n", MaxHorizon),
		"decreasing ticks":     "@3 fail 1\n@2 fail 2\n",
		"bare tick":            "@3\n",
		"bad node":             "@1 fail x\n",
		"negative node":        "@1 fail -4\n",
		"fail arity":           "@1 fail 1 2\n",
		"join arity":           "@1 join IX 5\n",
		"bad policy":           "@1 join IX 5 sometimes\n",
		"bad ASN":              "@1 leave IX notanasn\n",
		"regulate arity":       "@1 regulate MX US\n",
		"duplicate horizon":    "horizon 5\nhorizon 6\n",
		"horizon after event":  "@1 fail 1\nhorizon 5\n",
		"bad horizon":          "horizon 0\n",
		"huge horizon":         fmt.Sprintf("horizon %d\n", MaxHorizon+1),
		"horizon arity":        "horizon 5 6\n",
		"event past horizon":   "horizon 2\n@2 fail 1\n",
		"empty document":       "# only a comment\n",
		"long line":            "@1 regulate " + strings.Repeat("x", maxLineBytes) + "\n",
		"bad delta arity":      "@1 withdraw 5\n",
		"unknown delta signal": "@1 link~ p2c 1 2\n",
		"demand arity":         "@1 demand\n",
		"demand extra arg":     "@1 demand 2 3\n",
		"demand not a number":  "@1 demand much\n",
		"demand zero":          "@1 demand 0\n",
		"demand negative":      "@1 demand -2\n",
		"demand oversized":     "@1 demand 65\n",
		"demand NaN":           "@1 demand NaN\n",
		"stake-shift arity":    "@1 stake-shift\n",
		"stake-shift bad":      "@1 stake-shift sour\n",
		"stake-shift above":    "@1 stake-shift 1.5\n",
		"stake-shift below":    "@1 stake-shift -1.5\n",
		"pressure arity":       "@1 pressure IX 5\n",
		"pressure bad policy":  "@1 pressure IX 5 sometimes\n",
		"pressure bad ASN":     "@1 pressure IX x open\n",
	}
	for name, in := range cases {
		if _, err := ParseStream(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ParseStream(%q) succeeded, want error", name, in)
		}
	}
}

func TestParseDocShadowValidatesBGPEvents(t *testing.T) {
	base := "as 1\nas 2\np2c 1 2\norigin 2 p\n"
	if _, err := ParseDoc(strings.NewReader(base + "@1 withdraw 1 p\n")); err == nil {
		t.Error("withdraw by a non-origin passed shadow validation")
	}
	if _, err := ParseDoc(strings.NewReader(base + "@1 link- p2c 2 1\n")); err == nil {
		t.Error("tearing down a reversed link passed shadow validation")
	}
	// The shadow applies in canonical order: a same-tick migration is valid
	// even written announce-first.
	if _, err := ParseDoc(strings.NewReader(base + "@1 announce 1 p\n@1 withdraw 2 p\n")); err != nil {
		t.Errorf("same-tick migration rejected: %v", err)
	}
}

// sampleDoc is a three-tier base topology with one BGP delta per tick: an
// origin withdrawal, a hijack-style announce, a transit edge swapped for a
// peering edge, and a double leak toggle that restores the base flag.
const sampleDoc = `# three-tier sample
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
# events
@1 withdraw 1000 pfx-1000
@2 announce 2 pfx-1000
@3 link- p2c 100 1000
@4 link+ peer 100 1000
@5 leak 100
@6 leak 100
`

func TestParseDocSampleReplays(t *testing.T) {
	doc, err := ParseDoc(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Stream.Events); got != 6 {
		t.Fatalf("parsed %d events, want 6", got)
	}
	// The parsed topology is the base: events are not pre-applied.
	if got := doc.Topo.Origins(1000); len(got) != 1 || got[0] != "pfx-1000" {
		t.Fatalf("base origins of AS 1000 = %v, want [pfx-1000]", got)
	}
	if !doc.Topo.HasProviderCustomer(100, 1000) {
		t.Fatal("base topology missing pre-event transit edge")
	}
	formatted := FormatDoc(doc)
	doc2, err := ParseDoc(strings.NewReader(formatted))
	if err != nil {
		t.Fatalf("re-parsing formatted document: %v\n%s", err, formatted)
	}
	if again := FormatDoc(doc2); again != formatted {
		t.Fatalf("format/parse/format not stable:\n--- first ---\n%s\n--- second ---\n%s", formatted, again)
	}
	// Every tick carries one delta, so the cold oracle runs after each one.
	m, err := NewBGPMachine(context.Background(), doc.Topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	hook := func(tick int) error {
		if err := tablesEqualCold(m.State()); err != nil {
			return err
		}
		topo := m.State().Topology()
		if tick == doc.Stream.Horizon-1 && (!topo.HasPeer(100, 1000) || !topo.IsLeaker(100)) {
			return fmt.Errorf("tick %d: want peer 100-1000 and leaker 100 after the last delta", tick)
		}
		return nil
	}
	if _, err := ReplayCtx(context.Background(), doc.Stream, hookedMachine{m, hook}); err != nil {
		t.Fatal(err)
	}
}

// TestParseDocErrorLines pins each rejected document to the document line
// its error names, base-topology and shadow-validation errors included.
func TestParseDocErrorLines(t *testing.T) {
	base := "as 1\nas 2\npeer 1 2\norigin 1 p\n" // lines 1-4
	cases := []struct {
		name, doc string
		stream    bool // parse with ParseStream instead of ParseDoc
		line      int
		want      string // exact message, when set
	}{
		{name: "unknown AS", doc: "# header\nhorizon 4\n\nas 1\nas 2\np2c 1 3\n", line: 6,
			want: "timeline: line 6: bgpsim: unknown AS: 3"},
		{name: "duplicate AS", doc: "as 1\nas 2\nas 1\n", line: 3,
			want: "timeline: line 3: bgpsim: duplicate AS: 1"},
		{name: "bad base ASN", doc: "as 1\nleaker x\n", line: 2},
		{name: "base arity", doc: "as 1\norigin 1\n", line: 2},
		{name: "base as after event", doc: base + "@1 leak 1\nas 3\n", line: 6,
			want: `timeline: line 6: base directive "as" after first event line`},
		{name: "base edge after event", doc: base + "@1 withdraw 1 p\np2c 1 2\n", line: 6},
		{name: "base origin after event", doc: base + "@1 leak 1\norigin 2 q\n", line: 6},
		{name: "base in stream", doc: "horizon 3\n@1 fail 2\nas 1\n", stream: true, line: 3,
			want: `timeline: line 3: base directive "as" not allowed in a stream document`},
		{name: "withdraw absent prefix", doc: base + "@1 withdraw 2 p\n", line: 5},
		{name: "withdraw unknown AS", doc: base + "@1 withdraw 9 p\n", line: 5},
		{name: "announce duplicate", doc: base + "@1 announce 1 p\n", line: 5},
		{name: "link+ existing edge", doc: base + "@1 link+ peer 1 2\n", line: 5},
		{name: "link+ self", doc: base + "@1 link+ p2c 1 1\n", line: 5},
		{name: "link- missing edge", doc: base + "@1 link- p2c 1 2\n", line: 5},
		{name: "leak unknown AS", doc: base + "@1 leak 9\n", line: 5},
		{name: "link bad mode", doc: base + "@1 link+ sibling 1 2\n", line: 5},
		{name: "link arity", doc: base + "@1 link+ p2c 1\n", line: 5},
		{name: "leak arity", doc: base + "@1 leak\n", line: 5},
		{name: "repeated withdraw", doc: base + "@1 withdraw 1 p\n@2 withdraw 1 p\n", line: 6},
		// Applicability is checked in canonical order, where withdraws sort
		// before leak toggles; the error still names the withdraw's own line.
		{name: "canonical order", doc: base + "@1 leak 1\n@1 withdraw 2 p\n@1 leak 2\n", line: 6},
	}
	for _, c := range cases {
		var err error
		if c.stream {
			_, err = ParseStream(strings.NewReader(c.doc))
		} else {
			_, err = ParseDoc(strings.NewReader(c.doc))
		}
		if err == nil {
			t.Errorf("%s: parse succeeded, want an error at line %d", c.name, c.line)
			continue
		}
		prefix := fmt.Sprintf("timeline: line %d: ", c.line)
		if !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("%s: err = %q, want prefix %q", c.name, err, prefix)
		}
		if c.want != "" && err.Error() != c.want {
			t.Errorf("%s: err = %q, want %q", c.name, err, c.want)
		}
	}
	// An inverse delta pair over two ticks applies cleanly.
	if _, err := ParseDoc(strings.NewReader(base + "@1 withdraw 1 p\n@2 announce 1 p\n")); err != nil {
		t.Errorf("inverse delta pair should parse: %v", err)
	}
}

func TestParseDocInfersHorizon(t *testing.T) {
	st, err := ParseStream(strings.NewReader("@4 fail 2\n@7 repair 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Horizon != 8 {
		t.Fatalf("inferred horizon = %d, want 8 (last tick + 1)", st.Horizon)
	}
}

// FuzzParseStream drives the document parser with arbitrary text. Whatever
// parses must round-trip: format and reparse to the identical canonical form.
// Documents carrying a base topology additionally replay their BGP events
// through the incremental engine with a cold-convergence oracle after every
// tick — the parser doubles as a scenario generator for the engine oracle.
// The BGP seeds carry one delta per tick, so the oracle runs after every
// delta.
func FuzzParseStream(f *testing.F) {
	for _, text := range readTestdata(f) {
		f.Add(text)
	}
	f.Add("horizon 4\n@0 fail 0\n@0 repair 1\n@3 regulate MX\n")
	f.Add("@0 join IX 0 open\n@0 leave IX 1\n")
	f.Add("as 1\nas 2\np2c 1 2\norigin 2 p\nhorizon 3\n@1 withdraw 2 p\n@2 announce 2 p\n")
	f.Add("as 1\nas 2\nas 3\np2c 1 2\np2c 1 3\norigin 3 q\n@1 leak 2\n@1 link- p2c 1 3\n@2 link+ p2c 1 3\n")
	f.Add("horizon 65536\n@65535 fail 1\n")
	f.Add("@0 demand 0.30000000000000004\n@1 pressure IX 9 open\n@2 stake-shift -0.999\n")
	f.Add(sampleDoc)
	f.Add("as 1\nas 2\np2c 1 2\norigin 2 p\n@1 withdraw 2 p\n@2 announce 1 p\n@3 link- p2c 1 2\n@4 link+ peer 1 2\n")
	f.Add("as 1\nas 2\nas 3\np2c 1 2\np2c 1 3\norigin 3 q\n@1 leak 2\n@2 leak 3\n@3 leak 2\n")
	f.Add("horizon 9\n@3 demand 64\n@4 stake-shift 1\n@5 stake-shift -1\n@8 pressure IXP-MX 1000 restrictive\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 2048 {
			return // bound convergence cost, not parser coverage
		}
		doc, err := ParseDoc(strings.NewReader(text))
		if err != nil {
			return
		}
		formatted := FormatDoc(doc)
		doc2, err := ParseDoc(strings.NewReader(formatted))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, formatted)
		}
		if again := FormatDoc(doc2); again != formatted {
			t.Fatalf("format not stable on:\n%s\n--- first ---\n%s\n--- second ---\n%s", text, formatted, again)
		}
		// Stream-only round-trip must agree with the document one.
		st, err := ParseStream(strings.NewReader(FormatStream(doc.Stream)))
		if err != nil {
			t.Fatalf("formatted stream does not re-parse: %v", err)
		}
		if FormatStream(st) != FormatStream(doc.Stream) {
			t.Fatalf("stream round-trip drifted on:\n%s", text)
		}
		if doc.Topo == nil || doc.Stream.Horizon > 128 {
			return
		}
		// Parse promised every BGP event applies in canonical order; replay
		// the BGP subset and hold the incremental engine to the cold oracle
		// after every tick.
		sub := Stream{Horizon: doc.Stream.Horizon}
		for _, e := range doc.Stream.Events {
			if e.Kind == KindBGP {
				sub.Events = append(sub.Events, e)
			}
		}
		m, err := NewBGPMachine(context.Background(), doc.Topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayCtx(context.Background(), sub, hookedMachine{m, func(int) error { return tablesEqualCold(m.State()) }}); err != nil {
			t.Fatalf("validated document failed replay: %v\n%s", err, text)
		}
	})
}
