package timeline

// The cross-domain composition layer: several Machines running under one
// merged event stream, coupled by cascade rules that turn one machine's
// per-tick observations into events injected into another machine's future
// ticks. This is where the paper's §3–§4 interplay becomes executable — a
// regulation event reshapes attachment economics, a routing outage shifts
// community-network demand, a locality collapse moves stakeholder attitudes
// — with the same determinism contract as single-machine replay.
//
// Determinism argument. Composed replay is bit-identical for any worker
// count because every source of order is pinned:
//
//  1. The input stream is canonicalized once (Canonicalize), so the scripted
//     events of a tick arrive in the documented application order.
//  2. Cascade rules fire serially, in declaration order, from observation
//     rows that are themselves deterministic (the Machine contract); worker
//     counts only parallelize machine internals, which are bit-identical by
//     those machines' own contracts.
//  3. Injected events are stamped with provenance (Event.Prov = rule name)
//     and a fixed landing tick (tick + Delay, Delay >= 1 — never the current
//     tick, so firing order cannot feed back into the tick that fired), then
//     merged into the due set of their landing tick through the same
//     canonical order, with provenance as the final tie-break.
//  4. Each event is routed to exactly one part: Compose rejects parts with
//     overlapping Kinds() up front, so routing never depends on part order.
//
// Replaying the same canonical stream through the same freshly built parts
// therefore yields byte-identical series, injection logs, and tables.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/experiment"
)

// Part is one named machine inside a composition. The name appears in
// rendered tables, injection provenance errors, and cascade rules' From.
type Part struct {
	Name string
	M    Machine
}

// Obs is the observation a cascade rule fires from: one part's row for the
// tick just completed, with named-column access.
type Obs struct {
	// Part and Tick locate the observation.
	Part string
	Tick int
	cols []Col
	row  []float64
}

// Value returns the named column's value, or false if the part has no such
// column.
func (o Obs) Value(name string) (float64, bool) {
	for i, c := range o.cols {
		if c.Name == name {
			return o.row[i], true
		}
	}
	return 0, false
}

// CascadeRule couples two domains: after every tick, Fire sees the From
// part's observation and may return events to inject at tick+Delay. Rules
// are the composition's only cross-machine channel — machines never see
// each other.
type CascadeRule struct {
	// Name tags injected events' provenance (Event.Prov); one token.
	Name string
	// From names the part whose observation feeds Fire.
	From string
	// Delay is the injection distance in ticks, >= 1: a cascade reacts to a
	// tick, it cannot rewrite it.
	Delay int
	// Once disarms the rule after the first firing that returns events —
	// e.g. a regulation enacted exactly once, however long the pressure
	// lasts.
	Once bool
	// Fire inspects the observation and returns events to inject (nil for
	// none). It must be deterministic in o; the At and Prov fields of
	// returned events are overwritten by the composition.
	Fire func(o Obs) []Event
}

// Composition is a set of parts wired by cascade rules, ready to replay.
// Build it with Compose. Not safe for concurrent use; like machines, parts
// are mutated by replay, so a fresh composition replays one stream once and
// a second ReplayCtx is an error.
type Composition struct {
	parts    []Part
	byKind   map[Kind]int // event kind -> index into parts
	rules    []CascadeRule
	from     []int // per rule, the index of the part it fires from
	replayed bool
}

// Compose validates the wiring and returns a composition. Part names must be
// unique tokens and the parts' Kinds() disjoint (each event kind has exactly
// one consumer); every rule needs a token name unique among rules, a From
// naming a part, Delay >= 1, and a Fire hook.
func Compose(parts []Part, rules []CascadeRule) (*Composition, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("timeline: compose needs at least one part")
	}
	c := &Composition{parts: parts, rules: rules, byKind: make(map[Kind]int)}
	partIdx := make(map[string]int, len(parts))
	for i, p := range parts {
		if err := validateName(p.Name); err != nil {
			return nil, fmt.Errorf("timeline: part %d: %w", i, err)
		}
		if _, dup := partIdx[p.Name]; dup {
			return nil, fmt.Errorf("timeline: duplicate part %q", p.Name)
		}
		if p.M == nil {
			return nil, fmt.Errorf("timeline: part %q has no machine", p.Name)
		}
		partIdx[p.Name] = i
		for _, k := range p.M.Kinds() {
			if j, taken := c.byKind[k]; taken {
				return nil, fmt.Errorf("timeline: parts %q and %q both consume %s events",
					parts[j].Name, p.Name, k)
			}
			c.byKind[k] = i
		}
	}
	ruleNames := make(map[string]bool, len(rules))
	for i, r := range rules {
		if err := validateName(r.Name); err != nil {
			return nil, fmt.Errorf("timeline: rule %d: %w", i, err)
		}
		if ruleNames[r.Name] {
			return nil, fmt.Errorf("timeline: duplicate rule %q", r.Name)
		}
		ruleNames[r.Name] = true
		from, ok := partIdx[r.From]
		if !ok {
			return nil, fmt.Errorf("timeline: rule %q fires from unknown part %q", r.Name, r.From)
		}
		c.from = append(c.from, from)
		if r.Delay < 1 {
			return nil, fmt.Errorf("timeline: rule %q has delay %d (want >= 1)", r.Name, r.Delay)
		}
		if r.Fire == nil {
			return nil, fmt.Errorf("timeline: rule %q has no Fire hook", r.Name)
		}
	}
	return c, nil
}

// ComposedSeries is a composed replay's output: one series per part (same
// order as the parts), the full injection log in injection order, and the
// count of injected events dropped for landing at or past the horizon.
type ComposedSeries struct {
	Parts    []string
	Series   []*Series
	Injected []Event
	Dropped  int
}

// ReplayCtx canonicalizes and validates the stream, then runs it through the
// composition: for each tick, apply the tick's due events (scripted plus
// cascade-injected, in canonical order) each to its consuming part, observe
// every part in part order, then fire the cascade rules in declaration order
// against the new observations. Injected events land at tick+Delay; events
// that would land at or past the horizon are counted in Dropped instead (a
// cascade cannot extend the story), and the total injection count shares the
// stream's MaxEvents budget so a rule mis-firing every tick cannot run away.
// The context is checked once per tick; machines capture their own context
// at construction if their internals fan out.
func (c *Composition) ReplayCtx(ctx context.Context, s Stream) (*ComposedSeries, error) {
	if c.replayed {
		return nil, fmt.Errorf("timeline: composition already replayed; compose fresh parts to replay again")
	}
	c.replayed = true
	cs := s.Canonicalize()
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	for i, e := range cs.Events {
		if _, ok := c.byKind[e.Kind]; !ok {
			return nil, fmt.Errorf("timeline: event %d (tick %d): no part consumes %s events", i, e.At, e.Kind)
		}
	}
	out := &ComposedSeries{}
	for _, p := range c.parts {
		out.Parts = append(out.Parts, p.Name)
		out.Series = append(out.Series, &Series{Cols: p.M.Cols()})
	}
	fired := make([]bool, len(c.rules))
	var pending []Event // injected, not yet due, in injection order
	next := 0
	for tick := 0; tick < cs.Horizon; tick++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("timeline: tick %d: %w", tick, err)
		}
		due := make([]Event, 0, 4)
		for next < len(cs.Events) && cs.Events[next].At == tick {
			due = append(due, cs.Events[next])
			next++
		}
		keep := pending[:0]
		for _, e := range pending {
			if e.At == tick {
				due = append(due, e)
			} else {
				keep = append(keep, e)
			}
		}
		pending = keep
		sort.SliceStable(due, func(i, j int) bool { return less(due[i], due[j]) })
		for _, e := range due {
			p := c.parts[c.byKind[e.Kind]]
			if err := p.M.Apply(e); err != nil {
				if e.Prov != "" {
					return nil, fmt.Errorf("timeline: tick %d: part %s: apply %s (injected by %s): %w",
						tick, p.Name, e.Kind, e.Prov, err)
				}
				return nil, fmt.Errorf("timeline: tick %d: part %s: apply %s: %w", tick, p.Name, e.Kind, err)
			}
		}
		obs := make([]Obs, len(c.parts))
		for i, p := range c.parts {
			row, err := p.M.Observe(tick)
			if err != nil {
				return nil, fmt.Errorf("timeline: tick %d: part %s: observe: %w", tick, p.Name, err)
			}
			if len(row) != len(out.Series[i].Cols) {
				return nil, fmt.Errorf("timeline: tick %d: part %s: observation has %d values, want %d",
					tick, p.Name, len(row), len(out.Series[i].Cols))
			}
			out.Series[i].Rows = append(out.Series[i].Rows, row)
			obs[i] = Obs{Part: p.Name, Tick: tick, cols: out.Series[i].Cols, row: row}
		}
		for ri := range c.rules {
			r := &c.rules[ri]
			if r.Once && fired[ri] {
				continue
			}
			evs := r.Fire(obs[c.from[ri]])
			if len(evs) == 0 {
				continue
			}
			fired[ri] = true
			for _, e := range evs {
				e.At = tick + r.Delay
				e.Prov = r.Name
				if err := e.validate(); err != nil {
					return nil, fmt.Errorf("timeline: tick %d: rule %s: %w", tick, r.Name, err)
				}
				if _, ok := c.byKind[e.Kind]; !ok {
					return nil, fmt.Errorf("timeline: tick %d: rule %s: no part consumes %s events", tick, r.Name, e.Kind)
				}
				if len(cs.Events)+len(out.Injected) >= MaxEvents {
					return nil, fmt.Errorf("timeline: tick %d: rule %s: cascade exceeded the %d-event budget",
						tick, r.Name, MaxEvents)
				}
				if e.At >= cs.Horizon {
					out.Dropped++
					continue
				}
				pending = append(pending, e)
				out.Injected = append(out.Injected, e)
			}
		}
	}
	return out, nil
}

// Tables renders every part's series into res as "<id>-<part>" tables plus,
// when any event was injected, an "<id>-cascade" table logging each injected
// event (landing tick, firing rule, the event in grammar form) and the
// dropped count as trailing rows. Deterministic, like Series.Table.
func (cs *ComposedSeries) Tables(res *experiment.Result, id, title string) {
	for i, name := range cs.Parts {
		cs.Series[i].Table(res, fmt.Sprintf("%s-%s", id, name), fmt.Sprintf("%s — %s", title, name))
	}
	if len(cs.Injected) == 0 && cs.Dropped == 0 {
		return
	}
	t := res.AddTable(id+"-cascade", title+" — cascade log", "tick", "rule", "event")
	for _, e := range cs.Injected {
		t.AddRow(experiment.I(e.At), experiment.S(e.Prov), experiment.S(formatEvent(e)))
	}
	if cs.Dropped > 0 {
		t.AddRow(experiment.I(-1), experiment.S("(dropped)"), experiment.S(fmt.Sprintf("%d past horizon", cs.Dropped)))
	}
}
