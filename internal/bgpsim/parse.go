package bgpsim

// A line-oriented text format for topologies, so scenario files and fuzzers
// can describe an AS graph without Go code. The grammar is one directive per
// line, '#' starts a comment, blank lines are ignored:
//
//	as <asn> [name]          declare an AS (required before use)
//	p2c <provider> <customer>  provider-customer transit edge
//	peer <a> <b>             settlement-free peering edge
//	origin <asn> <prefix>    asn originates prefix
//	leaker <asn>             mark asn as violating export policy
//
// ParseScenario additionally accepts event lines after the base topology —
// the textual form of the incremental engine's deltas (see incremental.go):
//
//	withdraw <asn> <prefix>  asn stops originating prefix
//	announce <asn> <prefix>  asn originates prefix (a hijack when not its own)
//	link+ p2c <prov> <cust>  add a transit edge
//	link+ peer <a> <b>       add a peering edge
//	link- p2c <prov> <cust>  remove a transit edge
//	link- peer <a> <b>       remove a peering edge
//	leak <asn>               toggle asn's leaker flag
//
// Events are validated in sequence against a shadow copy of the base
// topology, and base directives after the first event line are rejected, so
// a parsed scenario always replays cleanly through Converged.Apply.
//
// Parsing is strict: unknown directives, malformed ASNs, references to
// undeclared ASes, inapplicable events, and oversized inputs are errors,
// never silent skips — a scenario file that drifts from the topology it
// claims to describe would otherwise corrupt an experiment quietly.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Parse limits. They bound the work a hostile (fuzzed) input can demand
// while staying far above any scenario the experiments use.
const (
	maxParseLine   = 1 << 10 // bytes per line
	maxParseASes   = 4096
	maxParseEvents = 4096
)

// ParseTopology reads the text format from r and returns the topology.
// Event lines are rejected; use ParseScenario for documents with events.
func ParseTopology(r io.Reader) (*Topology, error) {
	t, _, err := parseDoc(r, false)
	return t, err
}

// ParseTopologyString is ParseTopology over an in-memory document.
func ParseTopologyString(s string) (*Topology, error) {
	return ParseTopology(strings.NewReader(s))
}

// ParseScenario reads a base topology followed by event lines. The returned
// topology is the base (events NOT applied); the deltas replay in order
// through Converged.Apply or Topology mutators. Every event was validated
// against a shadow copy of the topology during parsing, so replaying the
// sequence on the base cannot fail.
func ParseScenario(r io.Reader) (*Topology, []Delta, error) {
	return parseDoc(r, true)
}

// ParseScenarioString is ParseScenario over an in-memory document.
func ParseScenarioString(s string) (*Topology, []Delta, error) {
	return ParseScenario(strings.NewReader(s))
}

// parseDoc is the shared line loop behind ParseTopology and ParseScenario.
// With allowEvents=false, event directives fall through to the unknown-
// directive error, keeping ParseTopology's strictness unchanged.
func parseDoc(r io.Reader, allowEvents bool) (*Topology, []Delta, error) {
	t := NewTopology()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxParseLine), maxParseLine)
	nAS := 0
	lineNo := 0
	var events []Delta
	// shadow is a clone of the base topology that events are test-applied
	// to as they parse; it exists from the first event line onward and
	// also marks that base directives are no longer allowed.
	var shadow *Topology
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		directive, args := fields[0], fields[1:]
		var err error
		switch directive {
		case "as":
			if shadow != nil {
				err = errBaseAfterEvent(directive)
				break
			}
			if len(args) < 1 || len(args) > 2 {
				err = fmt.Errorf("want `as <asn> [name]`, got %d args", len(args))
				break
			}
			if nAS >= maxParseASes {
				err = fmt.Errorf("more than %d ASes", maxParseASes)
				break
			}
			var n ASN
			if n, err = parseASN(args[0]); err != nil {
				break
			}
			info := ASInfo{}
			if len(args) == 2 {
				info.Name = args[1]
			}
			if err = t.AddAS(n, info); err == nil {
				nAS++
			}
		case "p2c", "peer":
			if shadow != nil {
				err = errBaseAfterEvent(directive)
				break
			}
			var a, b ASN
			if a, b, err = parseASNPair(args); err != nil {
				break
			}
			if directive == "p2c" {
				err = t.AddProviderCustomer(a, b)
			} else {
				err = t.AddPeer(a, b)
			}
		case "origin":
			if shadow != nil {
				err = errBaseAfterEvent(directive)
				break
			}
			if len(args) != 2 {
				err = fmt.Errorf("want `origin <asn> <prefix>`, got %d args", len(args))
				break
			}
			var n ASN
			if n, err = parseASN(args[0]); err != nil {
				break
			}
			err = t.Originate(n, args[1])
		case "leaker":
			if shadow != nil {
				err = errBaseAfterEvent(directive)
				break
			}
			if len(args) != 1 {
				err = fmt.Errorf("want `leaker <asn>`, got %d args", len(args))
				break
			}
			var n ASN
			if n, err = parseASN(args[0]); err != nil {
				break
			}
			if !t.MarkLeaker(n) {
				err = fmt.Errorf("unknown AS %d", n)
			}
		case "withdraw", "announce", "link+", "link-", "leak":
			if !allowEvents {
				err = fmt.Errorf("unknown directive %q", directive)
				break
			}
			if len(events) >= maxParseEvents {
				err = fmt.Errorf("more than %d events", maxParseEvents)
				break
			}
			var d Delta
			if d, err = ParseDelta(directive, args); err != nil {
				break
			}
			if shadow == nil {
				shadow = t.Clone()
			}
			if err = shadow.ApplyDelta(d); err != nil {
				break
			}
			events = append(events, d)
		default:
			err = fmt.Errorf("unknown directive %q", directive)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bgpsim: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("bgpsim: reading topology: %w", err)
	}
	return t, events, nil
}

func errBaseAfterEvent(directive string) error {
	return fmt.Errorf("base directive %q after first event line", directive)
}

// ParseDelta parses one event line — the directive keyword (a
// DeltaKind.String() value: withdraw, announce, link+, link-, leak) plus its
// space-split arguments — into a Delta. It is the single-line form of the
// ParseScenario event grammar, so FormatScenario round-trips; FormatDelta is
// its inverse.
func ParseDelta(directive string, args []string) (Delta, error) {
	var d Delta
	switch directive {
	case "withdraw", "announce":
		if len(args) != 2 {
			return d, fmt.Errorf("want `%s <asn> <prefix>`, got %d args", directive, len(args))
		}
		n, err := parseASN(args[0])
		if err != nil {
			return d, err
		}
		d.Kind = DeltaWithdraw
		if directive == "announce" {
			d.Kind = DeltaAnnounce
		}
		d.A, d.Prefix = n, args[1]
	case "link+", "link-":
		if len(args) != 3 || (args[0] != "p2c" && args[0] != "peer") {
			return d, fmt.Errorf("want `%s p2c|peer <a> <b>`, got %q", directive, strings.Join(args, " "))
		}
		a, b, err := parseASNPair(args[1:])
		if err != nil {
			return d, err
		}
		d.Kind = DeltaLinkUp
		if directive == "link-" {
			d.Kind = DeltaLinkDown
		}
		d.A, d.B, d.Peer = a, b, args[0] == "peer"
	case "leak":
		if len(args) != 1 {
			return d, fmt.Errorf("want `leak <asn>`, got %d args", len(args))
		}
		n, err := parseASN(args[0])
		if err != nil {
			return d, err
		}
		d.Kind = DeltaLeakToggle
		d.A = n
	default:
		return d, fmt.Errorf("unknown event directive %q", directive)
	}
	return d, nil
}

// FormatTopology renders t back into the text format, in deterministic
// order (ascending ASNs, providers/peers/origins sorted). ParseTopology ∘
// FormatTopology is the identity on topology structure.
func FormatTopology(t *Topology) string {
	var b strings.Builder
	asns := t.ASNs()
	for _, n := range asns {
		info, _ := t.Info(n)
		if info.Name != "" && len(strings.Fields(info.Name)) == 1 {
			fmt.Fprintf(&b, "as %d %s\n", n, info.Name)
		} else {
			fmt.Fprintf(&b, "as %d\n", n)
		}
	}
	// Emit each edge once: p2c from the provider side, peer from the lower
	// ASN side.
	for _, n := range asns {
		neighbors := t.Neighbors(n)
		for _, nb := range sortedNeighborASNs(neighbors) {
			switch neighbors[nb] {
			case FromCustomer:
				fmt.Fprintf(&b, "p2c %d %d\n", n, nb)
			case FromPeer:
				if n < nb {
					fmt.Fprintf(&b, "peer %d %d\n", n, nb)
				}
			}
		}
	}
	for _, n := range asns {
		for _, pfx := range t.Origins(n) {
			fmt.Fprintf(&b, "origin %d %s\n", n, pfx)
		}
	}
	for _, n := range asns {
		if t.IsLeaker(n) {
			fmt.Fprintf(&b, "leaker %d\n", n)
		}
	}
	return b.String()
}

// FormatScenario renders a base topology plus an ordered event sequence.
// ParseScenario ∘ FormatScenario is the identity on (topology, events)
// whenever the events actually apply to the base in order.
func FormatScenario(t *Topology, events []Delta) string {
	var b strings.Builder
	b.WriteString(FormatTopology(t))
	for _, d := range events {
		b.WriteString(FormatDelta(d))
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatDelta renders d as its event-grammar line; inverse of ParseDelta.
func FormatDelta(d Delta) string {
	switch d.Kind {
	case DeltaWithdraw, DeltaAnnounce:
		return fmt.Sprintf("%s %d %s", d.Kind, d.A, d.Prefix)
	case DeltaLinkUp, DeltaLinkDown:
		mode := "p2c"
		if d.Peer {
			mode = "peer"
		}
		return fmt.Sprintf("%s %s %d %d", d.Kind, mode, d.A, d.B)
	case DeltaLeakToggle:
		return fmt.Sprintf("%s %d", d.Kind, d.A)
	}
	return fmt.Sprintf("# bad delta kind %d", int(d.Kind))
}

// sortedNeighborASNs is the collect-keys-then-sort idiom over a neighbor map.
func sortedNeighborASNs(neighbors map[ASN]Relationship) []ASN {
	out := make([]ASN, 0, len(neighbors))
	for nb := range neighbors {
		out = append(out, nb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func parseASN(s string) (ASN, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad ASN %q", s)
	}
	return ASN(v), nil
}

func parseASNPair(args []string) (ASN, ASN, error) {
	if len(args) != 2 {
		return 0, 0, fmt.Errorf("want two ASNs, got %d args", len(args))
	}
	a, err := parseASN(args[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := parseASN(args[1])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
