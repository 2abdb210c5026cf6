// Package survey models survey research over the networking community:
// instruments (Likert, multiple-choice, free-text questions), synthetic
// respondent populations with hard-to-reach strata, three sampling designs
// (simple random, stratified, snowball), and a response model with frame
// and nonresponse bias.
//
// The paper's §6.2 footnote claims survey methods "have a host of practical
// issues" reaching the networking community; experiment E8 quantifies the
// mechanism: marginal operator strata are absent from sampling frames and
// respond poorly to cold contact, so random and stratified designs
// under-represent them and bias population estimates, while snowball
// sampling reaches them through social ties at the cost of cluster bias.
package survey

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rng"
)

// QuestionKind is the response format of a question.
type QuestionKind int

// Question kinds.
const (
	Likert QuestionKind = iota
	MultipleChoice
	FreeText
	Numeric
)

// String returns the kind name.
func (k QuestionKind) String() string {
	switch k {
	case Likert:
		return "likert"
	case MultipleChoice:
		return "multiple-choice"
	case FreeText:
		return "free-text"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("QuestionKind(%d)", int(k))
	}
}

// Question is one instrument item.
type Question struct {
	ID      string
	Text    string
	Kind    QuestionKind
	Options []string // MultipleChoice only
	Scale   int      // Likert points (e.g. 5 or 7)
}

// Instrument is a survey questionnaire.
type Instrument struct {
	Title     string
	Questions []Question
}

// ErrInvalidInstrument wraps instrument validation failures.
var ErrInvalidInstrument = errors.New("survey: invalid instrument")

// Validate checks structural validity: non-empty unique question IDs,
// Likert scales of at least 2 points, and options present for
// multiple-choice items.
func (ins Instrument) Validate() error {
	if len(ins.Questions) == 0 {
		return fmt.Errorf("%w: no questions", ErrInvalidInstrument)
	}
	seen := make(map[string]bool, len(ins.Questions))
	for _, q := range ins.Questions {
		if q.ID == "" {
			return fmt.Errorf("%w: question without ID", ErrInvalidInstrument)
		}
		if seen[q.ID] {
			return fmt.Errorf("%w: duplicate question %s", ErrInvalidInstrument, q.ID)
		}
		seen[q.ID] = true
		switch q.Kind {
		case Likert:
			if q.Scale < 2 {
				return fmt.Errorf("%w: likert %s needs a scale >= 2", ErrInvalidInstrument, q.ID)
			}
		case MultipleChoice:
			if len(q.Options) < 2 {
				return fmt.Errorf("%w: multiple-choice %s needs options", ErrInvalidInstrument, q.ID)
			}
		}
	}
	return nil
}

// Person is one member of the target population.
type Person struct {
	ID      int
	Stratum string
	// InFrame marks presence in the sampling frame (directory, mailing
	// list, conference attendee roster). Hard-to-reach strata are mostly
	// absent.
	InFrame bool
	// ColdResponseProb is the chance of answering an unsolicited survey.
	ColdResponseProb float64
	// ReferredResponseProb is the chance of answering when referred by a
	// peer (snowball).
	ReferredResponseProb float64
	// Contacts are social ties used by snowball sampling.
	Contacts []int
	// TrueScore is the latent attitude measured by the survey (0..1).
	TrueScore float64
}

// Population is an immutable synthetic population.
type Population struct {
	People []Person
	strata map[string][]int
}

// Strata returns the stratum names sorted.
func (p *Population) Strata() []string {
	out := make([]string, 0, len(p.strata))
	for s := range p.strata {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TrueMean returns the population mean of TrueScore.
func (p *Population) TrueMean() float64 {
	if len(p.People) == 0 {
		return 0
	}
	s := 0.0
	for _, person := range p.People {
		s += person.TrueScore
	}
	return s / float64(len(p.People))
}

// StratumSpec configures one stratum of the synthetic population.
type StratumSpec struct {
	Name string
	// Count is the stratum size.
	Count int
	// FrameCoverage is the fraction listed in the sampling frame.
	FrameCoverage float64
	// ColdResponse and ReferredResponse are the response probabilities.
	ColdResponse, ReferredResponse float64
	// MeanScore is the stratum's mean latent attitude; individual scores
	// are MeanScore + noise clipped to [0,1].
	MeanScore float64
}

// DefaultStrata returns the population used by E8: visible hyperscaler and
// regional operators versus hard-to-reach community and rural operators
// whose attitudes differ — the people the paper says are "not in the room".
func DefaultStrata() []StratumSpec {
	return []StratumSpec{
		{Name: "hyperscaler-op", Count: 150, FrameCoverage: 0.95, ColdResponse: 0.5, ReferredResponse: 0.7, MeanScore: 0.8},
		{Name: "regional-isp", Count: 350, FrameCoverage: 0.8, ColdResponse: 0.35, ReferredResponse: 0.6, MeanScore: 0.65},
		{Name: "community-operator", Count: 300, FrameCoverage: 0.15, ColdResponse: 0.08, ReferredResponse: 0.55, MeanScore: 0.35},
		{Name: "rural-operator", Count: 200, FrameCoverage: 0.08, ColdResponse: 0.05, ReferredResponse: 0.5, MeanScore: 0.25},
	}
}

// SynthPopulation builds a population from specs. Social ties are mostly
// within-stratum (homophily 0.8) with occasional cross-stratum bridges, so
// snowball chains can enter hard-to-reach strata through bridges.
func SynthPopulation(specs []StratumSpec, tiesPerPerson int, r *rng.Rand) *Population {
	pop := &Population{strata: make(map[string][]int)}
	for _, spec := range specs {
		for i := 0; i < spec.Count; i++ {
			id := len(pop.People)
			score := spec.MeanScore + 0.1*r.NormFloat64()
			if score < 0 {
				score = 0
			}
			if score > 1 {
				score = 1
			}
			pop.People = append(pop.People, Person{
				ID:                   id,
				Stratum:              spec.Name,
				InFrame:              r.Bool(spec.FrameCoverage),
				ColdResponseProb:     spec.ColdResponse,
				ReferredResponseProb: spec.ReferredResponse,
				TrueScore:            score,
			})
			pop.strata[spec.Name] = append(pop.strata[spec.Name], id)
		}
	}
	// Ties.
	for i := range pop.People {
		p := &pop.People[i]
		for t := 0; t < tiesPerPerson; t++ {
			var pool []int
			if r.Bool(0.8) {
				pool = pop.strata[p.Stratum]
			} else {
				pool = nil // any
			}
			var other int
			if pool != nil {
				other = pool[r.Intn(len(pool))]
			} else {
				other = r.Intn(len(pop.People))
			}
			if other != p.ID {
				p.Contacts = append(p.Contacts, other)
			}
		}
	}
	return pop
}

// Frame returns the IDs present in the sampling frame.
func (p *Population) Frame() []int {
	var out []int
	for _, person := range p.People {
		if person.InFrame {
			out = append(out, person.ID)
		}
	}
	return out
}
