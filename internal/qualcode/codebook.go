// Package qualcode implements the qualitative-coding engine the paper's §5.2
// calls for ("If there is a significant corpus, these conversations can be
// formally coded"): hierarchical codebooks, segment-level annotation by
// multiple coders, the standard inter-rater reliability statistics (Cohen's
// kappa, Fleiss' kappa, Krippendorff's alpha), code co-occurrence and theme
// extraction, quote extraction with privacy redaction, and code-saturation
// curves.
//
// A synthetic transcript generator and simulated coders (synth.go) let the
// whole pipeline be exercised and benchmarked without human subjects, per
// the substitution rule in DESIGN.md.
package qualcode

import (
	"errors"
	"fmt"
	"sort"
)

// Code is one entry in a codebook. Codes form a forest via Parent.
type Code struct {
	ID         string
	Parent     string // empty for top-level codes
	Name       string
	Definition string
}

// Codebook is a hierarchical set of codes. The zero value is empty and
// usable.
type Codebook struct {
	codes map[string]*Code
}

// Errors returned by codebook operations.
var (
	ErrDuplicateCode = errors.New("qualcode: duplicate code")
	ErrUnknownCode   = errors.New("qualcode: unknown code")
	ErrCodeCycle     = errors.New("qualcode: code hierarchy cycle")
)

// NewCodebook returns an empty codebook.
func NewCodebook() *Codebook {
	return &Codebook{codes: make(map[string]*Code)}
}

// Add inserts a code. The parent, when non-empty, must already exist.
func (cb *Codebook) Add(c Code) error {
	if c.ID == "" {
		return fmt.Errorf("qualcode: code needs an ID")
	}
	if _, ok := cb.codes[c.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateCode, c.ID)
	}
	if c.Parent != "" {
		if _, ok := cb.codes[c.Parent]; !ok {
			return fmt.Errorf("%w: parent %s of %s", ErrUnknownCode, c.Parent, c.ID)
		}
	}
	cp := c
	cb.codes[c.ID] = &cp
	return nil
}

// Get returns a code by ID.
func (cb *Codebook) Get(id string) (Code, bool) {
	c, ok := cb.codes[id]
	if !ok {
		return Code{}, false
	}
	return *c, true
}

// Has reports whether the code exists.
func (cb *Codebook) Has(id string) bool { _, ok := cb.codes[id]; return ok }

// Len returns the number of codes.
func (cb *Codebook) Len() int { return len(cb.codes) }

// IDs returns all code IDs sorted.
func (cb *Codebook) IDs() []string {
	out := make([]string, 0, len(cb.codes))
	for id := range cb.codes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Ancestors returns the chain of ancestors of id from parent to root.
func (cb *Codebook) Ancestors(id string) []string {
	var out []string
	seen := map[string]bool{id: true}
	c, ok := cb.codes[id]
	for ok && c.Parent != "" {
		if seen[c.Parent] {
			break // defensive: Add prevents cycles, but never loop forever
		}
		seen[c.Parent] = true
		out = append(out, c.Parent)
		c, ok = cb.codes[c.Parent]
	}
	return out
}

// Depth returns 0 for top-level codes, 1 for their children, and so on;
// -1 for unknown codes.
func (cb *Codebook) Depth(id string) int {
	if !cb.Has(id) {
		return -1
	}
	return len(cb.Ancestors(id))
}

// Roots returns the top-level codes, sorted.
func (cb *Codebook) Roots() []string {
	var out []string
	for id, c := range cb.codes {
		if c.Parent == "" {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
