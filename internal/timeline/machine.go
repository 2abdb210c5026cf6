package timeline

// The machine contract. A Machine is live simulation state that can apply
// the events it understands and observe one row of metrics per tick;
// ReplayCtx drives a stream through it and collects the time series.
// Determinism contract: a Machine's Apply/Observe must be pure functions of
// its construction arguments and the event sequence — no wall clock, no
// global RNG, no map-iteration-order dependence — so ReplayCtx(ctx, stream,
// machine) is byte-stable for a fixed seed at any worker count.

import (
	"context"

	"repro/internal/experiment"
)

// Col describes one observation column. Prec >= 0 renders as a fixed-
// precision float cell; Prec < 0 renders as an integer cell (the value is
// truncated, which is exact for counters).
type Col struct {
	Name string
	Prec int
}

// Machine is replayable simulation state.
type Machine interface {
	// Cols declares the observation columns, fixed for the machine's life.
	Cols() []Col
	// Kinds declares the event kinds the machine consumes, fixed for the
	// machine's life. It is the routing contract of the composition layer
	// (compose.go): Compose requires the parts' kind sets to be disjoint and
	// directs each merged-stream or cascade-injected event to the one part
	// that claims its kind. Single-machine ReplayCtx is a one-part
	// composition, so it too rejects a stream carrying an undeclared kind.
	Kinds() []Kind
	// Apply applies one event. Machines are strict: an event of a kind the
	// machine does not model, or one inapplicable to the current state
	// (failing a down node, withdrawing an absent origin), is an error.
	Apply(Event) error
	// Observe returns the metric row for the tick just completed, parallel
	// to Cols. It may advance machine-internal processes (e.g. one demand
	// epoch) but must not depend on anything outside the machine.
	Observe(tick int) ([]float64, error)
}

// Series is a replay's output: one row per tick, parallel to Cols. The tick
// itself is implicit in the row index.
type Series struct {
	Cols []Col
	Rows [][]float64
}

// ReplayCtx runs the stream through m alone: a one-part composition with no
// cascade rules, so single-machine replay shares the composition's tick loop
// (Composition.ReplayCtx) and returns the machine's only series. For each
// tick in [0, Horizon) it applies that tick's events in canonical order, then
// observes. Every event's kind must be one m.Kinds() declares; the stream is
// rejected up front otherwise.
func ReplayCtx(ctx context.Context, s Stream, m Machine) (*Series, error) {
	c, err := Compose([]Part{{Name: "machine", M: m}}, nil)
	if err != nil {
		return nil, err
	}
	out, err := c.ReplayCtx(ctx, s)
	if err != nil {
		return nil, err
	}
	return out.Series[0], nil
}

// Table renders the series into res as a table with a leading "tick" column,
// applying each Col's precision. The rendering is deterministic, so equal
// series produce byte-equal experiment results.
func (s *Series) Table(res *experiment.Result, id, title string) *experiment.Table {
	cols := make([]string, 0, len(s.Cols)+1)
	cols = append(cols, "tick")
	for _, c := range s.Cols {
		cols = append(cols, c.Name)
	}
	t := res.AddTable(id, title, cols...)
	for tick, row := range s.Rows {
		cells := make([]string, 0, len(row)+1)
		cells = append(cells, experiment.I(tick))
		for j, v := range row {
			if s.Cols[j].Prec < 0 {
				cells = append(cells, experiment.I64(int64(v)))
			} else {
				cells = append(cells, experiment.FP(v, s.Cols[j].Prec))
			}
		}
		t.AddRow(cells...)
	}
	return t
}
