package timeline

// The timeline text format: the one replayable grammar for event streams. A
// document is an optional bgpsim base topology followed by tick-stamped
// event lines. One directive per line, '#' starts a comment, blank lines are
// ignored:
//
//	horizon <n>              ticks to replay (optional; inferred as the
//	                         last event tick + 1 when omitted)
//	<base directives>        a bgpsim topology (as/p2c/peer/origin/leaker),
//	                         only in documents (ParseDoc), only before the
//	                         first event line; bgpsim.ApplyDirective applies
//	                         each line as it is read
//	@<tick> <event>          an event at a tick; ticks must be nondecreasing
//
// Events:
//
//	@3 withdraw 64500 pfx-a      BGP deltas — bgpsim.ParseDelta's one-line
//	@3 announce 64501 pfx-a      form (withdraw/announce/link+/link-/leak),
//	@4 link- p2c 10 64500        applied through the incremental engine
//	@7 leak 20
//	@2 fail 5                    community-network member churn
//	@6 repair 5
//	@1 join IXP-MX 1000 open     exchange membership (policy: open,
//	@5 leave IXP-MX 1000         selective, restrictive)
//	@9 regulate MX               mandatory peering at MX's exchanges
//	@4 demand 2.5                cross-domain sets: CN demand scale,
//	@6 pressure IXP-MX 1000 open soft (idempotent) exchange join, and
//	@8 stake-shift -0.25         stakeholder attitude shift
//
// Each non-BGP keyword is one kindTable row, and takes one argument per
// field of its payload, in the order shown: parseEvent and formatEvent read
// the row and branch only on its payload shape, and a directive that names no
// row goes to bgpsim.ParseDelta, which keeps the delta keywords and answers
// an unknown directive. A parsed event is validated, so it sets no field
// outside its kind's payload.
//
// Float payloads (demand, stake-shift) render via strconv.FormatFloat 'g'
// with -1 precision, so format ∘ parse round-trips them bit-exactly. Event
// provenance (Event.Prov) is runtime-only and has no grammar: cascade-
// injected events format like hand-written ones.
//
// Parsing is strict — unknown directives, malformed ticks or ASNs,
// out-of-order ticks, oversized inputs, bad base directives, and (when a
// base topology is present) BGP events that do not apply to it in canonical
// order are all errors naming the document line, never silent skips.
// FormatStream/FormatDoc emit the canonical form; parse ∘ format is the
// identity on it.

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bgpsim"
	"repro/internal/ixp"
)

// maxLineBytes bounds one line of input, mirroring the bgpsim parser.
const maxLineBytes = 1 << 10

// Doc is a parsed timeline document: an optional base BGP topology (nil when
// the document had no base directives) and the event stream. A document with
// a base is self-contained — reportgen -timeline replays it end to end.
type Doc struct {
	Topo   *bgpsim.Topology
	Stream Stream
}

// ParseDoc reads a timeline document: optional base topology, optional
// horizon, events. When a base is present, every BGP event is validated
// against a shadow copy in canonical order, so replaying the stream through
// a BGPMachine over the base cannot fail.
func ParseDoc(r io.Reader) (*Doc, error) { return parseTimeline(r, true) }

// ParseStream reads a stream-only document (horizon + events); base topology
// directives are rejected. BGP events parse but are not validated against
// any topology — the machine is strict at replay time.
func ParseStream(r io.Reader) (Stream, error) {
	d, err := parseTimeline(r, false)
	if err != nil {
		return Stream{}, err
	}
	return d.Stream, nil
}

// parseTimeline is the shared line loop.
func parseTimeline(r io.Reader, allowBase bool) (*Doc, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxLineBytes), maxLineBytes)
	var (
		topo    *bgpsim.Topology
		events  []Event
		lines   []int // document line of each event
		horizon = -1
		lastAt  = 0
		lineNo  = 0
	)
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
		directive := fields[0]
		var err error
		switch {
		case strings.HasPrefix(directive, "@"):
			var at int
			if at, err = strconv.Atoi(directive[1:]); err != nil || at < 0 || at >= MaxHorizon {
				err = fmt.Errorf("bad tick %q (want @0..@%d)", directive, MaxHorizon-1)
				break
			}
			if at < lastAt {
				err = fmt.Errorf("tick %d after tick %d (ticks must be nondecreasing)", at, lastAt)
				break
			}
			if len(events) >= MaxEvents {
				err = fmt.Errorf("more than %d events", MaxEvents)
				break
			}
			if len(fields) < 2 {
				err = fmt.Errorf("want `@<tick> <event>`, got bare tick")
				break
			}
			var ev Event
			if ev, err = parseEvent(at, fields[1], fields[2:]); err != nil {
				break
			}
			lastAt = at
			events = append(events, ev)
			lines = append(lines, lineNo)
		case directive == "horizon":
			if len(events) > 0 {
				err = fmt.Errorf("horizon after first event line")
				break
			}
			if horizon >= 0 {
				err = fmt.Errorf("duplicate horizon directive")
				break
			}
			if len(fields) != 2 {
				err = fmt.Errorf("want `horizon <n>`, got %d args", len(fields)-1)
				break
			}
			var h int
			if h, err = strconv.Atoi(fields[1]); err != nil || h < 1 || h > MaxHorizon {
				err = fmt.Errorf("bad horizon %q (want 1..%d)", fields[1], MaxHorizon)
				break
			}
			horizon = h
		case bgpsim.IsDirective(directive):
			if !allowBase {
				err = fmt.Errorf("base directive %q not allowed in a stream document", directive)
				break
			}
			if len(events) > 0 {
				err = fmt.Errorf("base directive %q after first event line", directive)
				break
			}
			if topo == nil {
				topo = bgpsim.NewTopology()
			}
			err = topo.ApplyDirective(directive, fields[1:])
		default:
			err = fmt.Errorf("unknown directive %q", directive)
		}
		if err != nil {
			return nil, fmt.Errorf("timeline: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("timeline: reading document: %w", err)
	}

	if horizon < 0 {
		if len(events) == 0 {
			return nil, fmt.Errorf("timeline: empty document (no horizon, no events)")
		}
		horizon = lastAt + 1
	}
	// Canonicalize by sorting event indices with the same stable order, so
	// each event keeps its document line for the applicability check.
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return less(&events[order[a]], &events[order[b]]) })
	canon := make([]Event, len(events))
	for k, i := range order {
		canon[k] = events[i]
	}
	doc := &Doc{Topo: topo, Stream: Stream{Horizon: horizon, Events: canon}}
	if err := doc.Stream.Validate(); err != nil {
		return nil, err
	}
	if topo != nil {
		shadow := topo.Clone()
		for _, i := range order {
			if e := events[i]; e.Kind == KindBGP {
				if err := shadow.ApplyDelta(e.Delta); err != nil {
					return nil, fmt.Errorf("timeline: line %d: %w", lines[i], err)
				}
			}
		}
	}
	return doc, nil
}

// parseEvent parses one event directive with its arguments: a timeline
// keyword's arguments by its payload (kindTable), anything else as a delta
// line.
func parseEvent(at int, directive string, args []string) (Event, error) {
	ev := Event{At: at, Kind: KindBGP}
	for k, r := range kindTable {
		if r.payload != pDelta && r.keyword == directive {
			ev.Kind = Kind(k)
		}
	}
	r := ev.Kind.row()
	var err error
	switch {
	case r.payload == pDelta:
		ev.Delta, err = bgpsim.ParseDelta(directive, args)
	case len(args) != bits.OnesCount8(uint8(r.payload)):
		err = fmt.Errorf("want `%s %s`, got %d args", directive, r.args, len(args))
	case r.payload == pNode:
		if ev.Node, err = strconv.Atoi(args[0]); err != nil || ev.Node < 0 {
			err = fmt.Errorf("bad node %q", args[0])
		}
	case r.payload == pValue:
		if ev.Value, err = strconv.ParseFloat(args[0], 64); err != nil {
			err = fmt.Errorf("bad %s value %q", directive, args[0])
		}
	default: // an exchange or a country, then a member's ASN and policy
		ev.Name = args[0]
		if r.payload&pASN != 0 {
			ev.ASN, err = bgpsim.ParseASN(args[1])
		}
		if err == nil && r.payload&pPolicy != 0 {
			ev.Policy, err = parsePolicy(args[2])
		}
	}
	if err != nil {
		return ev, err
	}
	return ev, ev.validate()
}

func parsePolicy(s string) (ixp.PeeringPolicy, error) {
	for p := ixp.Open; p <= ixp.Restrictive; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("bad peering policy %q (want open, selective, or restrictive)", s)
}

// FormatStream renders the stream in canonical form: the horizon line, then
// one `@<tick> <event>` line per event in canonical order. ParseStream ∘
// FormatStream is the identity on canonical streams.
func FormatStream(s Stream) string {
	cs := s.Canonicalize()
	var b strings.Builder
	fmt.Fprintf(&b, "horizon %d\n", cs.Horizon)
	for _, e := range cs.Events {
		fmt.Fprintf(&b, "@%d %s\n", e.At, formatEvent(e))
	}
	return b.String()
}

// FormatDoc renders base topology (if any) then stream; inverse of ParseDoc
// on canonical documents.
func FormatDoc(d *Doc) string {
	var b strings.Builder
	if d.Topo != nil {
		b.WriteString(bgpsim.FormatTopology(d.Topo))
	}
	b.WriteString(FormatStream(d.Stream))
	return b.String()
}

// formatEvent renders the event portion of a line; inverse of parseEvent.
func formatEvent(e Event) string {
	r := e.Kind.row()
	if r.keyword == "" {
		return fmt.Sprintf("# bad event kind %d", int(e.Kind))
	}
	if r.payload == pDelta {
		return bgpsim.FormatDelta(e.Delta)
	}
	out := []string{r.keyword}
	if r.payload&pName != 0 {
		out = append(out, e.Name)
	}
	if r.payload&pASN != 0 {
		out = append(out, strconv.Itoa(int(e.ASN)))
	}
	if r.payload&pPolicy != 0 {
		out = append(out, e.Policy.String())
	}
	if r.payload&pNode != 0 {
		out = append(out, strconv.Itoa(e.Node))
	}
	if r.payload&pValue != 0 {
		out = append(out, strconv.FormatFloat(e.Value, 'g', -1, 64))
	}
	return strings.Join(out, " ")
}
