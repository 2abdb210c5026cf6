// Package par implements a participatory action research (PAR) project
// model: stakeholders, a participation ladder, engagement tracked across
// every lifecycle phase, and the ethics checkpoints the paper's §2 and
// §6.2.3 call for. Two simulations quantify the paper's core claims:
// community-driven inquiry surfaces problems that data-driven pipelines miss
// (E4, discovery.go), and iterative partner feedback converges designs that
// one-shot engineering does not (E10, iterate.go).
package par

import (
	"errors"
	"fmt"
	"sort"
)

// Phase is one stage of the research lifecycle. The paper's definition of
// PAR demands participation "at all levels, from scoping initial research
// questions through to the publication of research results".
type Phase int

// Lifecycle phases, in order.
const (
	ProblemFormation Phase = iota
	SolutionDesign
	Implementation
	Evaluation
	Publication
)

// Phases lists every phase in lifecycle order.
func Phases() []Phase {
	return []Phase{ProblemFormation, SolutionDesign, Implementation, Evaluation, Publication}
}

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case ProblemFormation:
		return "problem-formation"
	case SolutionDesign:
		return "solution-design"
	case Implementation:
		return "implementation"
	case Evaluation:
		return "evaluation"
	case Publication:
		return "publication"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Level is a rung on the participation ladder (after Arnstein): how much
// power participants hold at a given phase.
type Level int

// Participation levels, from least to most participatory.
const (
	NotInvolved Level = iota
	Informed
	Consulted
	Collaborating
	CommunityLed
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case NotInvolved:
		return "not-involved"
	case Informed:
		return "informed"
	case Consulted:
		return "consulted"
	case Collaborating:
		return "collaborating"
	case CommunityLed:
		return "community-led"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Stakeholder is a partner in the research: an operator, a community member,
// an institution.
type Stakeholder struct {
	ID   string
	Name string
	Role string
	// Marginal marks stakeholders from communities the paper describes as
	// structurally absent from research pipelines.
	Marginal bool
	// ConsentRecorded notes whether an ethics-process consent exists.
	ConsentRecorded bool
}

// Engagement is one stakeholder's participation level in one phase.
type Engagement struct {
	StakeholderID string
	Phase         Phase
	Level         Level
	// Notes documents how the engagement happened ("formed through the
	// municipal broadband meetup", ...), per §5.1's documentation call.
	Notes string
}

// Project is a PAR project: stakeholders plus an engagement matrix. The
// zero value is unusable; call NewProject.
type Project struct {
	Name         string
	stakeholders map[string]Stakeholder
	engagements  map[Phase]map[string]Engagement
	reflections  map[Phase][]string
}

// NewProject returns an empty project.
func NewProject(name string) *Project {
	return &Project{
		Name:         name,
		stakeholders: make(map[string]Stakeholder),
		engagements:  make(map[Phase]map[string]Engagement),
		reflections:  make(map[Phase][]string),
	}
}

// Errors returned by project operations.
var (
	ErrUnknownStakeholder   = errors.New("par: unknown stakeholder")
	ErrDuplicateStakeholder = errors.New("par: duplicate stakeholder")
)

// AddStakeholder registers a partner.
func (p *Project) AddStakeholder(s Stakeholder) error {
	if s.ID == "" {
		return fmt.Errorf("par: stakeholder needs an ID")
	}
	if _, ok := p.stakeholders[s.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateStakeholder, s.ID)
	}
	p.stakeholders[s.ID] = s
	return nil
}

// Stakeholder returns a partner by ID.
func (p *Project) Stakeholder(id string) (Stakeholder, bool) {
	s, ok := p.stakeholders[id]
	return s, ok
}

// StakeholderIDs returns all stakeholder IDs sorted.
func (p *Project) StakeholderIDs() []string {
	out := make([]string, 0, len(p.stakeholders))
	for id := range p.stakeholders {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Engage records (or updates) a stakeholder's participation in a phase.
func (p *Project) Engage(e Engagement) error {
	if _, ok := p.stakeholders[e.StakeholderID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownStakeholder, e.StakeholderID)
	}
	m, ok := p.engagements[e.Phase]
	if !ok {
		m = make(map[string]Engagement)
		p.engagements[e.Phase] = m
	}
	m[e.StakeholderID] = e
	return nil
}

// LevelAt returns a stakeholder's participation level in a phase
// (NotInvolved when absent).
func (p *Project) LevelAt(phase Phase, stakeholderID string) Level {
	return p.engagements[phase][stakeholderID].Level
}

// Reflect records a power-dynamics/goals reflection for a phase ("Successful
// PAR emphasizes continual reflection on goals and power dynamics").
func (p *Project) Reflect(phase Phase, note string) {
	p.reflections[phase] = append(p.reflections[phase], note)
}

// Reflections returns the reflection notes of a phase.
func (p *Project) Reflections(phase Phase) []string {
	return append([]string(nil), p.reflections[phase]...)
}

// CoverageScore returns the fraction of lifecycle phases in which at least
// one stakeholder participates at Collaborating or above — the paper's
// "full and active participation at all levels" made measurable.
func (p *Project) CoverageScore() float64 {
	phases := Phases()
	covered := 0
	for _, ph := range phases {
		for _, e := range p.engagements[ph] {
			if e.Level >= Collaborating {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(phases))
}

// AuditFinding is one issue raised by the ethics/participation audit.
type AuditFinding struct {
	Phase   Phase
	Subject string
	Problem string
}

// Audit checks the project against the PAR principles the paper lists:
// participation in every phase, consent recorded for marginal stakeholders,
// and at least one power-dynamics reflection per active phase.
func (p *Project) Audit() []AuditFinding {
	var out []AuditFinding
	for _, ph := range Phases() {
		anyActive := false
		for _, e := range p.engagements[ph] {
			if e.Level >= Consulted {
				anyActive = true
				break
			}
		}
		if !anyActive {
			out = append(out, AuditFinding{
				Phase:   ph,
				Subject: "participation",
				Problem: "no stakeholder consulted or above in this phase",
			})
		}
		if anyActive && len(p.reflections[ph]) == 0 {
			out = append(out, AuditFinding{
				Phase:   ph,
				Subject: "reflexivity",
				Problem: "no power-dynamics reflection recorded",
			})
		}
	}
	ids := p.StakeholderIDs()
	for _, id := range ids {
		s := p.stakeholders[id]
		if s.Marginal && !s.ConsentRecorded {
			out = append(out, AuditFinding{
				Subject: id,
				Problem: "marginal stakeholder without recorded consent",
			})
		}
	}
	return out
}

// Engagements returns all recorded engagements in deterministic order
// (phase, then stakeholder ID).
func (p *Project) Engagements() []Engagement {
	var out []Engagement
	for _, ph := range Phases() {
		m := p.engagements[ph]
		ids := make([]string, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			out = append(out, m[id])
		}
	}
	return out
}
