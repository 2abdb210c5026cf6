package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec is BENCHMARK.json: the workload names and the metric catalogue
// (name, unit, direction, regression bound). The benchmark prints exactly
// these metrics, so the file is the one place a metric is declared.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate checks names, units and directions, and that every name is used
// once across workloads and metrics.
func (s *spec) validate() error {
	seen := make(map[string]bool)
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
	}
	for _, group := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := use("metric", m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "higher" && m.Better != "lower" {
				return fmt.Errorf("metric %s: better is %q, want higher or lower", m.Name, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	return nil
}
