// Package timeline is the deterministic event-timeline engine: ordered
// streams of at-tick events replayed against live simulation state, emitting
// one observation row per tick. It turns the repository's single-equilibrium
// simulators into the stories the paper actually tells — Telmex re-juggling
// ASNs as regulators respond, community-network nodes failing and being
// repaired, IXP membership shifting under a staged mandatory-peering law.
//
// The engine is three small pieces:
//
//   - Event / Stream (this file): a tick-stamped event with one payload per
//     kind, and an ordered sequence of them with a horizon. Same-tick events
//     apply in a documented canonical order (see Canonicalize), so a stream
//     is a set of (tick, event) pairs with fully deterministic semantics —
//     the order they were generated or written in a file never matters.
//   - Machines (machine.go, bgp.go, cnmachine.go, ixpmachine.go): live state
//     that knows how to apply the events it understands and to observe a row
//     of per-tick metrics. The BGP machine drives bgpsim's incremental
//     engine (falling back to cold column re-convergence exactly where the
//     uniqueness gate demands — that logic lives in bgpsim, not here); the
//     CN and IXP machines drive the churn hooks those packages expose.
//   - Replay (machine.go): the loop — canonicalize, validate, apply each
//     tick's events, observe, collect a time-series that converts to an
//     experiment.Result table.
//
// Streams have a text format (parse.go): `@<tick> <event>` lines after an
// optional base BGP topology, strictly parsed, with FormatStream/FormatDoc
// as exact inverses — every timeline is a replayable artifact.
package timeline

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bgpsim"
	"repro/internal/cn"
	"repro/internal/ixp"
)

// Kind enumerates the event kinds a stream can carry.
type Kind uint8

const (
	// KindBGP applies a bgpsim delta (withdraw/announce/link+/link-/leak)
	// through the incremental engine. Payload: Delta.
	KindBGP Kind = iota
	// KindCNFail takes a community-network member down. Payload: Node.
	KindCNFail
	// KindCNRepair brings a failed member back up. Payload: Node.
	KindCNRepair
	// KindIXPJoin adds an AS to an exchange. Payload: Name, ASN, Policy.
	KindIXPJoin
	// KindIXPLeave removes an AS from an exchange, retracting its sessions
	// there. Payload: Name, ASN.
	KindIXPLeave
	// KindRegulate enacts mandatory peering at the IXPs of a country.
	// Payload: Name (the country code).
	KindRegulate
	// KindCNDemand sets the community network's demand scale to an absolute
	// factor (1 = baseline). Idempotent: replaying the same factor twice is a
	// no-op, which lets cascade rules re-assert it every tick. Payload: Value.
	KindCNDemand
	// KindIXPPressure is the soft form of KindIXPJoin: the AS joins the
	// exchange if it is not already a member, and the event is a no-op if it
	// is. Cascade rules use it so repeated cross-domain pressure (e.g. a
	// routing outage pushing competitors toward an IXP) never trips the
	// strict-membership error a second join would. Payload: Name, ASN, Policy.
	KindIXPPressure
	// KindStakeShift sets the stakeholder population's attitude shift to an
	// absolute offset in [-1, 1] added to every true score (0 = baseline).
	// Idempotent, like KindCNDemand. Payload: Value.
	KindStakeShift
)

// payload is a set of Event fields, one bit per field.
type payload uint8

const (
	pDelta payload = 1 << iota
	pName
	pASN
	pPolicy
	pNode
	pValue
)

// noKind is the inverse of a kind that has none.
const noKind Kind = math.MaxUint8

// kindRow is everything the grammar, validation, the canonical order and
// Merge know about one kind.
type kindRow struct {
	keyword string  // the grammar keyword; BGP events render as their delta line
	payload payload // the Event fields the kind carries
	args    string  // the grammar's placeholders, for error messages
	inverse Kind    // the kind that undoes this one on the same target, or noKind
	set     bool    // an absolute set: one tick cannot hold two different payloads
}

// kindTable holds one row per Kind.
var kindTable = [...]kindRow{
	KindBGP:         {"bgp", pDelta, "", noKind, false},
	KindCNFail:      {"fail", pNode, "<node>", KindCNRepair, false},
	KindCNRepair:    {"repair", pNode, "<node>", KindCNFail, false},
	KindIXPJoin:     {"join", pName | pASN | pPolicy, "<ixp> <asn> <policy>", KindIXPLeave, false},
	KindIXPLeave:    {"leave", pName | pASN, "<ixp> <asn>", KindIXPJoin, false},
	KindRegulate:    {"regulate", pName, "<country>", noKind, true},
	KindCNDemand:    {"demand", pValue, "<value>", noKind, true},
	KindIXPPressure: {"pressure", pName | pASN | pPolicy, "<ixp> <asn> <policy>", noKind, false},
	KindStakeShift:  {"stake-shift", pValue, "<value>", noKind, true},
}

// unknownKind is the row of a kind outside kindTable.
var unknownKind = kindRow{inverse: noKind}

// row returns k's table row; an unknown kind gets an empty row.
func (k Kind) row() *kindRow {
	if int(k) < len(kindTable) {
		return &kindTable[k]
	}
	return &unknownKind
}

// String returns the event-grammar keyword of the kind. BGP events have no
// single keyword — they render as their delta line (see FormatStream).
func (k Kind) String() string {
	if r := k.row(); r.keyword != "" {
		return r.keyword
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one tick-stamped occurrence. Exactly the payload fields of its
// Kind (its kindTable row) are meaningful; the rest stay zero, and
// validation rejects an event that sets one.
type Event struct {
	At     int
	Kind   Kind
	Delta  bgpsim.Delta      // KindBGP
	Node   int               // KindCNFail, KindCNRepair
	Name   string            // KindIXPJoin/Leave/Pressure: IXP name; KindRegulate: country
	ASN    bgpsim.ASN        // KindIXPJoin, KindIXPLeave, KindIXPPressure
	Policy ixp.PeeringPolicy // KindIXPJoin, KindIXPPressure
	Value  float64           // KindCNDemand, KindStakeShift
	// Prov tags cascade-injected events with the name of the rule that fired
	// them. It is runtime provenance, not grammar: FormatStream drops it, and
	// hand-written streams leave it empty. It participates in the canonical
	// order as the final tie-break so injected events replay deterministically.
	Prov string
}

// fields returns the set of payload fields e holds a non-zero value in.
func (e Event) fields() payload {
	var f payload
	for bit, set := range [...]bool{ // in payload bit order
		e.Delta != (bgpsim.Delta{}), e.Name != "", e.ASN != 0, e.Policy != 0, e.Node != 0, e.Value != 0,
	} {
		if set {
			f |= 1 << bit
		}
	}
	return f
}

// validate checks the event's fields independent of any stream or state.
// A field outside the kind's payload is zero, so the range checks of the
// numeric fields hold for every kind.
func (e Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("timeline: negative tick %d", e.At)
	}
	r := e.Kind.row()
	if r.payload&pName != 0 {
		if err := validateName(e.Name); err != nil {
			return err
		}
	}
	switch {
	case r.keyword == "":
		return fmt.Errorf("timeline: unknown event kind %d", int(e.Kind))
	case e.fields()&^r.payload != 0:
		return fmt.Errorf("timeline: %s event sets a field outside its payload: %+v", e.Kind, e)
	case e.Delta.Kind > bgpsim.DeltaLeakToggle:
		return fmt.Errorf("timeline: bad delta kind %d", int(e.Delta.Kind))
	case e.Node < 0:
		return fmt.Errorf("timeline: negative node %d", e.Node)
	case e.ASN < 0:
		return fmt.Errorf("timeline: negative ASN %d", e.ASN)
	case e.Policy < ixp.Open || e.Policy > ixp.Restrictive:
		return fmt.Errorf("timeline: bad peering policy %d", int(e.Policy))
	case e.Kind == KindCNDemand && (math.IsNaN(e.Value) || e.Value <= 0 || e.Value > MaxDemandScale):
		return fmt.Errorf("timeline: demand scale %v outside (0, %d]", e.Value, MaxDemandScale)
	case e.Kind == KindStakeShift && (math.IsNaN(e.Value) || e.Value < -1 || e.Value > 1):
		return fmt.Errorf("timeline: stake shift %v outside [-1, 1]", e.Value)
	}
	if e.Prov != "" {
		return validateName(e.Prov)
	}
	return nil
}

// validateName bounds the free-text token of join/leave/regulate events so
// it survives the one-token-per-field text format.
func validateName(s string) error {
	if s == "" || len(s) > 64 || strings.ContainsAny(s, " \t\r\n#") || strings.Fields(s)[0] != s {
		return fmt.Errorf("timeline: bad name %q (one token, <= 64 bytes, no '#')", s)
	}
	return nil
}

// less is the canonical event order: ascending tick, then kind, then the
// payload fields (only the kind's own are set), then provenance. Within a
// tick this is the order events APPLY in — the documented semantics, not a
// display convention. BGP deltas sort withdraws before announces (so a
// prefix can migrate between ASes in one tick), link-ups before link-downs,
// leak toggles last; CN fails precede repairs; IXP joins precede leaves;
// regulation applies after membership settles; cross-domain sets (demand,
// pressure, stake-shift) apply after the strict kinds they soften or scale.
// Ties beyond these fields are broken stably by input order. Events are
// compared in place: an Event is too large to copy per comparison.
func less(a, b *Event) bool {
	switch {
	case a.At != b.At:
		return a.At < b.At
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.Delta != b.Delta:
		return deltaLess(a.Delta, b.Delta)
	case a.Name != b.Name:
		return a.Name < b.Name
	case a.ASN != b.ASN:
		return a.ASN < b.ASN
	case a.Policy != b.Policy:
		return a.Policy < b.Policy
	case a.Node != b.Node:
		return a.Node < b.Node
	case a.Value != b.Value:
		return a.Value < b.Value
	}
	return a.Prov < b.Prov
}

// deltaLess orders BGP deltas: kind (withdraw < announce < link+ < link- <
// leak), then A, B, Prefix, Peer.
func deltaLess(a, b bgpsim.Delta) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	if a.Prefix != b.Prefix {
		return a.Prefix < b.Prefix
	}
	return !a.Peer && b.Peer
}

// Stream limits, bounding what a hostile (fuzzed) document can demand.
// MaxDemandScale bounds KindCNDemand factors at the largest multiplier the
// CN simulator accepts.
const (
	MaxHorizon     = 1 << 16
	MaxEvents      = 4096
	MaxDemandScale = cn.MaxDemandScale
)

// Stream is an ordered event sequence with a horizon: replay covers ticks
// 0..Horizon-1, applying each tick's events before observing it.
type Stream struct {
	Horizon int
	Events  []Event
}

// Canonicalize returns a copy of the stream with events stably sorted into
// the canonical application order (see less). Replay canonicalizes
// internally, so any permutation of the same event multiset replays
// identically; Canonicalize exists for code that wants the normal form
// itself (FormatStream emits it).
func (s Stream) Canonicalize() Stream {
	out := Stream{Horizon: s.Horizon, Events: append([]Event(nil), s.Events...)}
	sort.SliceStable(out.Events, func(i, j int) bool { return less(&out.Events[i], &out.Events[j]) })
	return out
}

// Validate checks bounds and per-event fields. It does not require canonical
// order (Canonicalize establishes that) and does not check applicability
// against any state — machines are strict about that at replay time.
func (s Stream) Validate() error {
	if s.Horizon <= 0 || s.Horizon > MaxHorizon {
		return fmt.Errorf("timeline: horizon %d outside [1, %d]", s.Horizon, MaxHorizon)
	}
	if len(s.Events) > MaxEvents {
		return fmt.Errorf("timeline: %d events exceed limit %d", len(s.Events), MaxEvents)
	}
	for i, e := range s.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("timeline: event %d: %w", i, err)
		}
		if e.At >= s.Horizon {
			return fmt.Errorf("timeline: event %d at tick %d >= horizon %d", i, e.At, s.Horizon)
		}
	}
	return nil
}

// ErrStreamConflict reports that merged streams carry same-tick events with
// contradictory semantics (see Merge). Returned errors wrap it.
var ErrStreamConflict = errors.New("timeline: conflicting events")

// Merge reconciles streams into one: the set union of their events under the
// longest horizon, canonicalized. Scenario builders use it to overlay
// generated sub-streams (e.g. staged joins plus a regulation date), and
// composed scenarios use it to weave several domains' sub-streams into the
// single stream a Composition replays.
//
// Reconciliation is not a blind union. Exact duplicate events collapse to
// one (streams are sets of (tick, event) pairs), and same-tick events that
// contradict each other — orders no canonical application order can make
// unambiguous — are an error wrapping ErrStreamConflict:
//
//   - fail vs repair of one CN node (the node's up-state after the tick
//     depends on which stream "wins");
//   - withdraw vs announce of one prefix by one origin (a migration between
//     two origins is fine — same origin is a flap with no defined outcome);
//   - link+ vs link- of one edge (peer edges compare undirected);
//   - two leak toggles of one AS (toggles compose by parity, so even the
//     exact-duplicate pair is a contradiction, not a redundancy);
//   - join vs leave of one AS at one exchange;
//   - two demand or stake-shift sets with different values (both are
//     absolute sets — last-writer-wins would depend on merge order);
//   - two regulations of different countries (regulation is modeled as one
//     country's regime per fabric).
func Merge(streams ...Stream) (Stream, error) {
	var out Stream
	for _, s := range streams {
		if s.Horizon > out.Horizon {
			out.Horizon = s.Horizon
		}
		out.Events = append(out.Events, s.Events...)
	}
	out = out.Canonicalize()
	seen := make(map[Event]bool, len(out.Events))
	uniq := out.Events[:0]
	for _, e := range out.Events {
		if e.Kind != KindBGP || e.Delta.Kind != bgpsim.DeltaLeakToggle {
			if seen[e] {
				continue
			}
			seen[e] = true
		}
		uniq = append(uniq, e)
	}
	out.Events = uniq
	if err := findConflict(out.Events); err != nil {
		return Stream{}, err
	}
	return out, nil
}

// findConflict scans canonically ordered events for the same-tick
// contradictions Merge documents. Events are grouped per tick; each group is
// small (MaxEvents bounds the whole stream), so the quadratic pair scan is
// fine and keeps the conflict table readable.
func findConflict(events []Event) error {
	for lo := 0; lo < len(events); {
		hi := lo
		for hi < len(events) && events[hi].At == events[lo].At {
			hi++
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				if conflicts(&events[i], &events[j]) {
					return fmt.Errorf("%w: tick %d: %s vs %s",
						ErrStreamConflict, events[i].At, formatEvent(events[i]), formatEvent(events[j]))
				}
			}
		}
		lo = hi
	}
	return nil
}

// conflicts reports whether two same-tick events contradict each other:
// inverse kinds (kindTable) on one target, or two different payloads of one
// absolute-set kind. Provenance is ignored: a cascade-injected event
// contradicts a scripted one just as hard.
func conflicts(a, b *Event) bool {
	r := a.Kind.row()
	switch {
	case r.payload == pDelta && b.Kind == a.Kind:
		return deltaConflicts(a.Delta, b.Delta)
	case r.inverse == b.Kind:
		return a.Node == b.Node && a.Name == b.Name && a.ASN == b.ASN
	case r.set && b.Kind == a.Kind:
		x, y := *a, *b
		x.Prov, y.Prov = "", ""
		return x != y
	}
	return false
}

// deltaConflicts reports contradictory same-tick BGP deltas.
func deltaConflicts(a, b bgpsim.Delta) bool {
	switch {
	case a.Kind == bgpsim.DeltaWithdraw && b.Kind == bgpsim.DeltaAnnounce,
		a.Kind == bgpsim.DeltaAnnounce && b.Kind == bgpsim.DeltaWithdraw:
		return a.A == b.A && a.Prefix == b.Prefix
	case a.Kind == bgpsim.DeltaLinkUp && b.Kind == bgpsim.DeltaLinkDown,
		a.Kind == bgpsim.DeltaLinkDown && b.Kind == bgpsim.DeltaLinkUp:
		if a.Peer != b.Peer {
			return false
		}
		if a.Peer {
			// Peer edges are undirected; compare both orientations.
			return (a.A == b.A && a.B == b.B) || (a.A == b.B && a.B == b.A)
		}
		return a.A == b.A && a.B == b.B
	case a.Kind == bgpsim.DeltaLeakToggle && b.Kind == bgpsim.DeltaLeakToggle:
		return a.A == b.A
	}
	return false
}
