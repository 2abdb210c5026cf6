// Package experiment makes the repository's measured experiments (E1–E22
// and the auxiliary scenarios) first-class data instead of main-function
// prose: a Scenario is a named, self-describing, deterministic computation
// from (Params, seed) to a Result of tables, registered once by its
// owning domain package and resolved by ID everywhere else.
//
// The package provides four layers:
//
//   - Scenario / Def: the runnable-scenario contract. A scenario declares a
//     typed parameter schema (Schema) with defaults and validation, a default
//     seed, and a Run function producing a *Result. Domain packages register
//     their scenarios in init() via Register, so any binary that links the
//     package can resolve them by ID.
//   - Result / Table: the deterministic output model. Tables carry ordered
//     columns and rows of cells, each cell the text every renderer prints,
//     formatted when the row is added (I, I64, F3, FP, FSigned). A Result
//     has one JSON shape: the cache entry holds it compact, the /run body
//     and the -json report indented, and the Markdown renderer joins the
//     same strings.
//   - Registry: ordered, duplicate-rejecting scenario lookup. E-numbered
//     scenarios sort numerically (E2 before E10); auxiliary scenarios sort
//     after them by name and are excluded from the standard report.
//     ParseJob reads the one text form of a run (a /run query) into a Job.
//   - Runner + Cache: the batch executor. Scenarios fan out over
//     internal/parallel (results land at their job index, so output is
//     bit-identical for any worker count) with an optional content-addressed
//     on-disk cache keyed by hash(scenario ID, canonical params, seed, module
//     version); a warm re-run of an unchanged report skips scenario execution
//     entirely.
//
// Determinism contract: Run must be a pure function of (Params, seed) plus
// the worker hint carried by the context — never of worker count, wall-clock
// time, map iteration order, or global mutable state. The humnetlint rules
// (wildrand, rangemap, paraccum) enforce this mechanically; the property
// suite in prop_test.go checks it dynamically.
package experiment

import (
	"context"
	"fmt"
)

// Scenario is one registered experiment: a named, claim-bearing,
// deterministic computation from (Params, seed) to a Result.
type Scenario interface {
	// ID is the registry key, e.g. "E14" or "cn-topology".
	ID() string
	// Title is the human-readable experiment name.
	Title() string
	// Claim is the one-line paper claim the experiment measures.
	Claim() string
	// Params describes the accepted parameters with defaults.
	Params() Schema
	// DefaultSeed is the seed the standard report runs with.
	DefaultSeed() uint64
	// Run executes the scenario. p has been validated against Params and
	// filled with defaults; the context may carry a worker hint
	// (WorkersFrom) for internal sweeps, which must not change the output.
	Run(ctx context.Context, p Values, seed uint64) (*Result, error)
}

// Def is the declarative form of a Scenario that domain packages register.
type Def struct {
	ID    string
	Title string
	// Claim is the paper claim the experiment reproduces in shape.
	Claim string
	// Seed is the default seed used by the standard report.
	Seed uint64
	// Aux marks auxiliary scenarios: resolvable by ID (reportgen -run,
	// /run) but excluded from the standard report.
	Aux    bool
	Params Schema
	Run    func(ctx context.Context, p Values, seed uint64) (*Result, error)
}

// validate reports why the definition is unusable, or nil.
func (d Def) validate() error {
	if d.ID == "" {
		return fmt.Errorf("experiment: Def with empty ID (title %q)", d.Title)
	}
	if d.Run == nil {
		return fmt.Errorf("experiment: scenario %s has no Run function", d.ID)
	}
	return d.Params.validate(d.ID)
}

// def adapts a Def to the Scenario interface.
type def struct{ d Def }

func (s def) ID() string    { return s.d.ID }
func (s def) Title() string { return s.d.Title }
func (s def) Claim() string { return s.d.Claim }

// Params returns a copy of the schema, bounds included: callers
// (renderers, CLI listing) must not be able to reorder or edit the
// registered parameter specs.
func (s def) Params() Schema {
	out := append(s.d.Params[:0:0], s.d.Params...)
	for i, spec := range out {
		if spec.Min != nil {
			out[i].Min = Bound(*spec.Min)
		}
		if spec.Max != nil {
			out[i].Max = Bound(*spec.Max)
		}
	}
	return out
}

func (s def) DefaultSeed() uint64 { return s.d.Seed }
func (s def) Run(ctx context.Context, p Values, seed uint64) (*Result, error) {
	return s.d.Run(ctx, p, seed)
}

// workersKey carries the per-scenario worker hint through contexts.
type workersKey struct{}

// WithWorkers returns a context carrying a worker-count hint for scenario
// internals (sweeps fan out over internal/parallel). The hint bounds
// goroutines only; scenario output is bit-identical for any value.
func WithWorkers(ctx context.Context, workers int) context.Context {
	return context.WithValue(ctx, workersKey{}, workers)
}

// WorkersFrom extracts the worker hint, or 0 (meaning GOMAXPROCS) when the
// context carries none.
func WorkersFrom(ctx context.Context) int {
	if v, ok := ctx.Value(workersKey{}).(int); ok {
		return v
	}
	return 0
}
