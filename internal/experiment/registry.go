package experiment

import (
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"sync"
)

// Registry is an ordered, duplicate-rejecting collection of scenarios.
// Domain packages register into the package-level Default registry from
// init(); tests construct their own.
type Registry struct {
	mu   sync.Mutex
	defs map[string]Def
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]Def)}
}

// Register validates d and adds it, returning an error on an invalid
// definition or a duplicate ID.
func (r *Registry) Register(d Def) error {
	if err := d.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.defs[d.ID]; dup {
		return fmt.Errorf("experiment: scenario %s registered twice", d.ID)
	}
	r.defs[d.ID] = d
	return nil
}

// MustRegister is Register for init() use: a bad definition is a programming
// error, so it panics.
func (r *Registry) MustRegister(d Def) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Get resolves a scenario by ID.
func (r *Registry) Get(id string) (Scenario, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.defs[id]
	if !ok {
		return nil, false
	}
	return def{d}, true
}

// ErrUnknownScenario is wrapped by ParseJob's error when the query's id is
// not registered, so a front end can tell a missing scenario from a
// malformed request (humnetd answers 404 for the one and 400 for the other).
var ErrUnknownScenario = errors.New("unknown scenario")

// ParseJob turns the text form of one run, a /run query such as
// id=E7&sites=10&seed=9, into a Job. It is the only text-to-Job parser:
// humnetd's /run and reportgen -run both call it, so equal text runs the
// same job on either path. Every key must appear exactly once; id is
// required; seed is optional (default: the scenario's) and base 10; every
// other key must name one of the scenario's params, parse with its
// Spec.Parse and lie in its declared range (else the error wraps
// ErrBadParam). Job.Params holds only the given params, typed.
func (r *Registry) ParseJob(q url.Values) (Job, error) {
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	// A repeated param, id and seed included, is ambiguous: q.Get would
	// silently keep the first value.
	for _, name := range names {
		if n := len(q[name]); n != 1 {
			return Job{}, fmt.Errorf("param %q given %d times, want exactly one value", name, n)
		}
	}
	id := q.Get("id")
	if id == "" {
		return Job{}, errors.New("missing required query param id")
	}
	sc, ok := r.Get(id)
	if !ok {
		return Job{}, fmt.Errorf("%w %q (see -list or /list)", ErrUnknownScenario, id)
	}
	seed := sc.DefaultSeed()
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return Job{}, fmt.Errorf("bad seed %q: %w", raw, err)
		}
		seed = v
	}
	schema := sc.Params()
	over := make(Values)
	for _, name := range names {
		if name == "id" || name == "seed" {
			continue
		}
		spec, ok := schema.Lookup(name)
		if !ok {
			return Job{}, fmt.Errorf("scenario %s has no param %q (see -list or /list)", sc.ID(), name)
		}
		v, err := spec.Parse(q.Get(name))
		if err == nil {
			err = spec.check(v)
		}
		if err != nil {
			return Job{}, err
		}
		over[name] = v
	}
	return Job{Scenario: sc, Params: over, Seed: seed}, nil
}

// IsAux reports whether id names a registered auxiliary scenario.
func (r *Registry) IsAux(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.defs[id]
	return ok && d.Aux
}

// All returns every registered scenario in registry order: E-numbered IDs
// first, numerically (E2 before E10, suffixes break ties), then everything
// else alphabetically.
func (r *Registry) All() []Scenario {
	r.mu.Lock()
	ds := make([]Def, 0, len(r.defs))
	for _, d := range r.defs {
		ds = append(ds, d)
	}
	r.mu.Unlock()
	sort.Slice(ds, func(i, j int) bool { return idLess(ds[i].ID, ds[j].ID) })
	out := make([]Scenario, len(ds))
	for i, d := range ds {
		out[i] = def{d}
	}
	return out
}

// Report returns the non-auxiliary scenarios in registry order — the set the
// standard report renders.
func (r *Registry) Report() []Scenario {
	all := r.All()
	out := all[:0]
	for _, s := range all {
		if !r.IsAux(s.ID()) {
			out = append(out, s)
		}
	}
	return out
}

// idKey decomposes an ID for ordering: E-numbered scenarios sort before
// auxiliary ones and among themselves by number then suffix.
func idKey(id string) (group int, num int, rest string) {
	if len(id) > 1 && id[0] == 'E' {
		i := 1
		for i < len(id) && id[i] >= '0' && id[i] <= '9' {
			i++
		}
		if i > 1 {
			n, err := strconv.Atoi(id[1:i])
			if err == nil {
				return 0, n, id[i:]
			}
		}
	}
	return 1, 0, id
}

// idLess is the registry ordering over scenario IDs.
func idLess(a, b string) bool {
	ga, na, ra := idKey(a)
	gb, nb, rb := idKey(b)
	if ga != gb {
		return ga < gb
	}
	if na != nb {
		return na < nb
	}
	return ra < rb
}

// Default is the process-wide registry that domain packages register into.
var Default = NewRegistry()

// Register adds d to the Default registry, panicking on an invalid
// definition or duplicate ID — both are init-time programming errors.
func Register(d Def) { Default.MustRegister(d) }

// Get resolves id in the Default registry.
func Get(id string) (Scenario, bool) { return Default.Get(id) }

// All lists the Default registry in registry order.
func All() []Scenario { return Default.All() }

// Report lists the Default registry's non-auxiliary scenarios.
func Report() []Scenario { return Default.Report() }
