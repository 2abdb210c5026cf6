package experiment

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind is the type of one scenario parameter.
type Kind int

const (
	Int Kind = iota
	Uint
	Float
	Bool
	String
)

// String names the kind the way it appears in -list output and errors.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Uint:
		return "uint"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case String:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec declares one parameter: its name, type, default, and documentation.
type Spec struct {
	Name    string
	Kind    Kind
	Default any
	Doc     string
}

// check reports whether v's dynamic type matches the spec's kind.
func (s Spec) check(v any) error {
	ok := false
	switch s.Kind {
	case Int:
		_, ok = v.(int)
	case Uint:
		_, ok = v.(uint64)
	case Float:
		_, ok = v.(float64)
	case Bool:
		_, ok = v.(bool)
	case String:
		_, ok = v.(string)
	}
	if !ok {
		return fmt.Errorf("param %q wants %s, got %T (%v)", s.Name, s.Kind, v, v)
	}
	return nil
}

// Parse converts flag-style text into the spec's typed value.
func (s Spec) Parse(text string) (any, error) {
	switch s.Kind {
	case Int:
		v, err := strconv.Atoi(text)
		if err != nil {
			return nil, fmt.Errorf("param %q: %w", s.Name, err)
		}
		return v, nil
	case Uint:
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("param %q: %w", s.Name, err)
		}
		return v, nil
	case Float:
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("param %q: %w", s.Name, err)
		}
		return v, nil
	case Bool:
		v, err := strconv.ParseBool(text)
		if err != nil {
			return nil, fmt.Errorf("param %q: %w", s.Name, err)
		}
		return v, nil
	case String:
		return text, nil
	}
	return nil, fmt.Errorf("param %q: unknown kind %v", s.Name, s.Kind)
}

// FormatValue renders a typed parameter value canonically: the same value
// always formats to the same text, and floats use the shortest
// representation that round-trips exactly.
func FormatValue(v any) string {
	switch x := v.(type) {
	case int:
		return strconv.Itoa(x)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	}
	return fmt.Sprintf("%v", v)
}

// Schema is the ordered parameter declaration of one scenario.
type Schema []Spec

// validate checks the schema itself: unique names, non-empty names, and
// defaults whose dynamic type matches the declared kind.
func (sch Schema) validate(scenarioID string) error {
	seen := make(map[string]bool, len(sch))
	for _, s := range sch {
		if s.Name == "" {
			return fmt.Errorf("experiment: scenario %s has a param with an empty name", scenarioID)
		}
		if seen[s.Name] {
			return fmt.Errorf("experiment: scenario %s declares param %q twice", scenarioID, s.Name)
		}
		seen[s.Name] = true
		if s.Default == nil {
			return fmt.Errorf("experiment: scenario %s param %q has no default", scenarioID, s.Name)
		}
		if err := s.check(s.Default); err != nil {
			return fmt.Errorf("experiment: scenario %s default: %w", scenarioID, err)
		}
	}
	return nil
}

// Lookup finds the spec named name.
func (sch Schema) Lookup(name string) (Spec, bool) {
	for _, s := range sch {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Defaults returns a fresh Values holding every parameter's default.
func (sch Schema) Defaults() Values {
	v := make(Values, len(sch))
	for _, s := range sch {
		v[s.Name] = s.Default
	}
	return v
}

// Validate rejects unknown parameter names and values whose dynamic type
// does not match the declared kind. A nil or empty Values is valid.
func (sch Schema) Validate(v Values) error {
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec, ok := sch.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown param %q", name)
		}
		if err := spec.check(v[name]); err != nil {
			return err
		}
	}
	return nil
}

// Merge validates over against the schema and returns the defaults overlaid
// with it: the complete, typed parameter set a scenario runs with.
func (sch Schema) Merge(over Values) (Values, error) {
	if err := sch.Validate(over); err != nil {
		return nil, err
	}
	merged := sch.Defaults()
	for name, v := range over {
		merged[name] = v
	}
	return merged, nil
}

// Values is a validated parameter assignment. The dynamic types are exactly
// int, uint64, float64, bool, and string, matching the Kind constants.
type Values map[string]any

// get fetches a value, panicking with a precise message on misuse: scenarios
// only ever see schema-merged Values, so a miss is a programming error, not
// an input error.
func (v Values) get(name string) any {
	x, ok := v[name]
	if !ok {
		panic(fmt.Sprintf("experiment: param %q not set (missing from schema?)", name))
	}
	return x
}

// Int returns the int parameter name.
func (v Values) Int(name string) int {
	x, ok := v.get(name).(int)
	if !ok {
		panic(fmt.Sprintf("experiment: param %q is %T, not int", name, v[name]))
	}
	return x
}

// Uint returns the uint64 parameter name.
func (v Values) Uint(name string) uint64 {
	x, ok := v.get(name).(uint64)
	if !ok {
		panic(fmt.Sprintf("experiment: param %q is %T, not uint64", name, v[name]))
	}
	return x
}

// Float returns the float64 parameter name.
func (v Values) Float(name string) float64 {
	x, ok := v.get(name).(float64)
	if !ok {
		panic(fmt.Sprintf("experiment: param %q is %T, not float64", name, v[name]))
	}
	return x
}

// String returns the string parameter name.
func (v Values) String(name string) string {
	x, ok := v.get(name).(string)
	if !ok {
		panic(fmt.Sprintf("experiment: param %q is %T, not string", name, v[name]))
	}
	return x
}

// Canonical renders the values as a stable, injective encoding used by the
// cache key: keys sorted, each record length-prefixed as
// "<len(name)>:<name>=<len(value)>:<value>\n" with the value in its canonical
// text form. The length prefixes make the encoding a prefix code — a decoder
// reads the digits up to ':', takes exactly that many bytes, and repeats — so
// no name or value content (including '=', ':', or '\n' inside string
// params) can make two different assignments encode to the same bytes. The
// old unprefixed "name=value\n" form collided on exactly those characters;
// cacheSchemaVersion was bumped when the encoding changed so old entries
// miss cleanly.
func (v Values) Canonical() string {
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		val := FormatValue(v[name])
		b.WriteString(strconv.Itoa(len(name)))
		b.WriteByte(':')
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(len(val)))
		b.WriteByte(':')
		b.WriteString(val)
		b.WriteByte('\n')
	}
	return b.String()
}

// Formatted returns the values as display strings keyed by name, the form
// embedded in Result.Params (and therefore in the cache and JSON output).
func (v Values) Formatted() map[string]string {
	out := make(map[string]string, len(v))
	for name, x := range v {
		out[name] = FormatValue(x)
	}
	return out
}

// ParseFloats parses a comma-separated float list — the encoding used by
// sweep-style list parameters such as E2's content-presence levels.
func ParseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list element %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty float list %q", s)
	}
	return out, nil
}
