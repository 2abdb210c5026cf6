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
// Topology.ApplyDirective applies one such line. ParseTopology runs it over
// a whole document, and the timeline package runs it over the base block of
// a timeline document with that document's line numbers.
//
// The incremental engine's deltas (see incremental.go) have a one-line form
// too, read by ParseDelta and written by FormatDelta:
//
//	withdraw <asn> <prefix>  asn stops originating prefix
//	announce <asn> <prefix>  asn originates prefix (a hijack when not its own)
//	link+ p2c <prov> <cust>  add a transit edge
//	link+ peer <a> <b>       add a peering edge
//	link- p2c <prov> <cust>  remove a transit edge
//	link- peer <a> <b>       remove a peering edge
//	leak <asn>               toggle asn's leaker flag
//
// Sequences of deltas are timeline documents (`@<tick> <delta>` lines after
// the base directives); the timeline package owns their grammar and checks
// that they apply to the base in order.
//
// Parsing is strict: unknown directives, malformed ASNs, references to
// undeclared ASes, and oversized inputs are errors, never silent skips — a
// scenario file that drifts from the topology it claims to describe would
// otherwise corrupt an experiment quietly.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse limits. They bound the work a hostile (fuzzed) input can demand
// while staying far above any scenario the experiments use.
const (
	maxParseLine = 1 << 10 // bytes per line
	maxParseASes = 4096
)

// ParseTopology reads the text format from r and returns the topology.
func ParseTopology(r io.Reader) (*Topology, error) {
	t := NewTopology()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxParseLine), maxParseLine)
	lineNo := 0
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
		if err := t.ApplyDirective(fields[0], fields[1:]); err != nil {
			return nil, fmt.Errorf("bgpsim: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgpsim: reading topology: %w", err)
	}
	return t, nil
}

// IsDirective reports whether keyword names a base directive that
// ApplyDirective accepts.
func IsDirective(keyword string) bool {
	switch keyword {
	case "as", "p2c", "peer", "origin", "leaker":
		return true
	}
	return false
}

// ApplyDirective applies one base directive line — its keyword plus the
// space-split arguments — to t. A topology fed through it holds at most
// maxParseASes ASes.
func (t *Topology) ApplyDirective(directive string, args []string) error {
	switch directive {
	case "as":
		if len(args) < 1 || len(args) > 2 {
			return fmt.Errorf("want `as <asn> [name]`, got %d args", len(args))
		}
		if len(t.ases) >= maxParseASes {
			return fmt.Errorf("more than %d ASes", maxParseASes)
		}
		n, err := ParseASN(args[0])
		if err != nil {
			return err
		}
		info := ASInfo{}
		if len(args) == 2 {
			info.Name = args[1]
		}
		return t.AddAS(n, info)
	case "p2c", "peer":
		a, b, err := parseASNPair(args)
		if err != nil {
			return err
		}
		if directive == "p2c" {
			return t.AddProviderCustomer(a, b)
		}
		return t.AddPeer(a, b)
	case "origin":
		if len(args) != 2 {
			return fmt.Errorf("want `origin <asn> <prefix>`, got %d args", len(args))
		}
		n, err := ParseASN(args[0])
		if err != nil {
			return err
		}
		return t.Originate(n, args[1])
	case "leaker":
		if len(args) != 1 {
			return fmt.Errorf("want `leaker <asn>`, got %d args", len(args))
		}
		n, err := ParseASN(args[0])
		if err != nil {
			return err
		}
		if !t.MarkLeaker(n) {
			return fmt.Errorf("unknown AS %d", n)
		}
		return nil
	}
	return fmt.Errorf("unknown directive %q", directive)
}

// ParseDelta parses one delta line — the directive keyword (a
// DeltaKind.String() value: withdraw, announce, link+, link-, leak) plus its
// space-split arguments — into a Delta. FormatDelta is its inverse.
func ParseDelta(directive string, args []string) (Delta, error) {
	d := Delta{Kind: DeltaKind(len(deltaKinds))}
	for k, row := range deltaKinds {
		if row.keyword == directive {
			d.Kind = DeltaKind(k)
		}
	}
	var err error
	switch d.Kind {
	case DeltaWithdraw, DeltaAnnounce:
		if len(args) != 2 {
			return d, fmt.Errorf("want `%s <asn> <prefix>`, got %d args", directive, len(args))
		}
		d.A, err = ParseASN(args[0])
		d.Prefix = args[1]
	case DeltaLinkUp, DeltaLinkDown:
		if len(args) != 3 || (args[0] != "p2c" && args[0] != "peer") {
			return d, fmt.Errorf("want `%s p2c|peer <a> <b>`, got %q", directive, strings.Join(args, " "))
		}
		d.A, d.B, err = parseASNPair(args[1:])
		d.Peer = args[0] == "peer"
	case DeltaLeakToggle:
		if len(args) != 1 {
			return d, fmt.Errorf("want `leak <asn>`, got %d args", len(args))
		}
		d.A, err = ParseASN(args[0])
	default:
		return d, fmt.Errorf("unknown event directive %q", directive)
	}
	return d, err
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
		for _, l := range t.ases[n].links {
			switch rel(l.bits) {
			case FromCustomer:
				fmt.Fprintf(&b, "p2c %d %d\n", n, l.asn)
			case FromPeer:
				if n < l.asn {
					fmt.Fprintf(&b, "peer %d %d\n", n, l.asn)
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

// FormatDelta renders d as its delta line; inverse of ParseDelta.
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

// ParseASN parses a non-negative decimal ASN that fits in 32 bits.
func ParseASN(s string) (ASN, error) {
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
	a, err := ParseASN(args[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := ParseASN(args[1])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
