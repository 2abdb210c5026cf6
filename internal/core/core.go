// Package core is the toolkit's primary contribution: a mixed-methods study
// container that makes the paper's three recommendations (§5) first-class,
// checkable artifacts of a networking research project:
//
//  1. include and document partnerships (§5.1) — Partnership records with
//     formation stories and per-phase influence;
//  2. detail informative conversations (§5.2) — Conversation records with
//     consent-aware quoting, linkable to formal coding in qualcode;
//  3. reflect on positionality (§5.3) — researcher statements and a
//     relevance audit against the study's claims.
//
// A Study composes the PAR engagement matrix (internal/par), field study
// (internal/ethno), coding project (internal/qualcode), and researcher
// positionality (internal/positionality), compiles a deterministic
// Markdown methods appendix, and scores the study against a checklist.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ethno"
	"repro/internal/par"
	"repro/internal/positionality"
	"repro/internal/qualcode"
)

// Partnership documents one research partnership per §5.1: who, how it
// formed, and which lifecycle phases it influenced.
type Partnership struct {
	Partner string
	// Formed tells the story of how the partnership came to be.
	Formed string
	// Influenced lists the phases the partner shaped.
	Influenced []par.Phase
}

// Conversation documents one informative conversation per §5.2 — the "work
// before the work".
type Conversation struct {
	With    string
	Context string
	Summary string
	Day     float64
	// Quotes are verbatim lines; they are only reproduced in the appendix
	// when ConsentToQuote is set, otherwise the summary paraphrases.
	Quotes         []string
	ConsentToQuote bool
	// OpenQuestions records what remained unresolved.
	OpenQuestions []string
}

// Study is a mixed-methods networking study.
type Study struct {
	Title string

	PAR         *par.Project
	Field       *ethno.Study
	Coding      *qualcode.Project
	Researchers []positionality.Researcher

	Partnerships  []Partnership
	Conversations []Conversation
	// Claims are the study's main claims, used by the positionality
	// relevance audit.
	Claims []positionality.Claim
}

// NewStudy returns a study with the given title and empty components.
func NewStudy(title string) *Study {
	return &Study{
		Title: title,
		PAR:   par.NewProject(title),
		Field: ethno.NewStudy(),
	}
}

// AddPartnership appends a partnership record; partner and formation story
// are required (documenting *how* partnerships formed is the point).
func (s *Study) AddPartnership(p Partnership) error {
	if p.Partner == "" || p.Formed == "" {
		return fmt.Errorf("core: partnership needs a partner and a formation story")
	}
	s.Partnerships = append(s.Partnerships, p)
	return nil
}

// AddConversation appends a conversation record; a summary is required.
func (s *Study) AddConversation(c Conversation) error {
	if c.With == "" || c.Summary == "" {
		return fmt.Errorf("core: conversation needs an interlocutor and a summary")
	}
	s.Conversations = append(s.Conversations, c)
	return nil
}

// Checklist scores the study against the paper's recommendations.
type Checklist struct {
	PartnershipsDocumented  bool // >= 1 partnership with formation story
	ConversationsDocumented bool // >= 1 conversation record
	PositionalityProvided   bool // every researcher discloses something
	ParticipationFull       bool // PAR coverage score == 1
	EthicsClean             bool // PAR audit returns no findings
	PositionalityGaps       int  // relevant-but-undisclosed attributes
}

// Score returns how many of the five binary checklist items pass.
func (c Checklist) Score() int {
	n := 0
	for _, ok := range []bool{
		c.PartnershipsDocumented,
		c.ConversationsDocumented,
		c.PositionalityProvided,
		c.ParticipationFull,
		c.EthicsClean,
	} {
		if ok {
			n++
		}
	}
	return n
}

// Check evaluates the checklist.
func (s *Study) Check() Checklist {
	c := Checklist{
		PartnershipsDocumented:  len(s.Partnerships) > 0,
		ConversationsDocumented: len(s.Conversations) > 0,
	}
	if len(s.Researchers) > 0 {
		c.PositionalityProvided = true
		for _, r := range s.Researchers {
			disclosed := false
			for _, a := range r.Attributes {
				if a.Disclosed {
					disclosed = true
					break
				}
			}
			if !disclosed {
				c.PositionalityProvided = false
				break
			}
		}
	}
	if s.PAR != nil {
		c.ParticipationFull = s.PAR.CoverageScore() == 1
		c.EthicsClean = len(s.PAR.Audit()) == 0
	}
	for _, r := range s.Researchers {
		c.PositionalityGaps += len(positionality.DisclosureGaps(
			positionality.RelevanceAudit(r, s.Claims)))
	}
	return c
}

// MethodsAppendix compiles the study's human-methods documentation into a
// deterministic Markdown document suitable for a paper appendix or an
// artifact README.
func (s *Study) MethodsAppendix() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Methods Appendix: %s\n\n", s.Title)

	b.WriteString("## Partnerships\n\n")
	if len(s.Partnerships) == 0 {
		b.WriteString("No partnerships documented.\n\n")
	}
	for _, p := range s.Partnerships {
		fmt.Fprintf(&b, "- **%s** — formed: %s.", p.Partner, p.Formed)
		if len(p.Influenced) > 0 {
			names := make([]string, len(p.Influenced))
			for i, ph := range p.Influenced {
				names[i] = ph.String()
			}
			sort.Strings(names)
			fmt.Fprintf(&b, " Influenced: %s.", strings.Join(names, ", "))
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")

	b.WriteString("## Formative conversations\n\n")
	if len(s.Conversations) == 0 {
		b.WriteString("No conversations documented.\n\n")
	}
	for i, c := range s.Conversations {
		fmt.Fprintf(&b, "### Conversation %d (%s, day %.0f)\n\n", i+1, c.Context, c.Day)
		fmt.Fprintf(&b, "%s\n\n", c.Summary)
		if c.ConsentToQuote {
			for _, q := range c.Quotes {
				fmt.Fprintf(&b, "> %q — %s\n", q, c.With)
			}
			if len(c.Quotes) > 0 {
				b.WriteString("\n")
			}
		} else if len(c.Quotes) > 0 {
			b.WriteString("_Direct quotes withheld (no consent to quote); paraphrased above._\n\n")
		}
		for _, q := range c.OpenQuestions {
			fmt.Fprintf(&b, "- Open question: %s\n", q)
		}
		if len(c.OpenQuestions) > 0 {
			b.WriteString("\n")
		}
	}

	if s.Coding != nil && len(s.Coding.Coders()) > 0 {
		b.WriteString("## Coded corpus\n\n")
		fmt.Fprintf(&b, "%d documents coded by %d coder(s) against %d codes.\n",
			len(s.Coding.DocumentIDs()), len(s.Coding.Coders()), s.Coding.Codebook.Len())
		if k := s.Coding.MeanPairwiseKappa(); !math.IsNaN(k) {
			fmt.Fprintf(&b, "Mean pairwise Cohen kappa: %.3f.\n", k)
		}
		if a := s.Coding.KrippendorffAlpha(); !math.IsNaN(a) {
			fmt.Fprintf(&b, "Krippendorff alpha: %.3f.\n", a)
		}
		counts := s.Coding.CodeCounts()
		ids := s.Coding.Codebook.IDs()
		b.WriteString("\n| Code | Applications |\n|---|---|\n")
		for _, id := range ids {
			fmt.Fprintf(&b, "| %s | %d |\n", id, counts[id])
		}
		b.WriteString("\n")
	}

	b.WriteString("## Positionality\n\n")
	if len(s.Researchers) == 0 {
		b.WriteString("No positionality statements provided.\n\n")
	}
	for _, r := range s.Researchers {
		fmt.Fprintf(&b, "- %s\n", r.Statement())
	}
	if len(s.Researchers) > 0 {
		b.WriteString("\n")
	}

	if s.PAR != nil {
		b.WriteString("## Participation matrix\n\n")
		fmt.Fprintf(&b, "Coverage score: %.2f (phases with a collaborating-or-above partner).\n\n", s.PAR.CoverageScore())
		b.WriteString("| Phase | Stakeholder | Level |\n|---|---|---|\n")
		for _, ph := range par.Phases() {
			for _, id := range s.PAR.StakeholderIDs() {
				lvl := s.PAR.LevelAt(ph, id)
				if lvl == par.NotInvolved {
					continue
				}
				fmt.Fprintf(&b, "| %s | %s | %s |\n", ph, id, lvl)
			}
		}
		b.WriteString("\n")

		findings := s.PAR.Audit()
		b.WriteString("## Ethics & participation audit\n\n")
		if len(findings) == 0 {
			b.WriteString("No findings.\n")
		}
		for _, f := range findings {
			if f.Subject == "participation" || f.Subject == "reflexivity" {
				fmt.Fprintf(&b, "- [%s] %s: %s\n", f.Phase, f.Subject, f.Problem)
			} else {
				fmt.Fprintf(&b, "- [stakeholder %s] %s\n", f.Subject, f.Problem)
			}
		}
	}
	return b.String()
}

// TriangulationReport joins the field study's notes against measured
// anomalies and renders the result with the coding project's themes (when a
// coding project is attached), giving the mixed-methods narrative §6.1
// gestures at.
func (s *Study) TriangulationReport(anomalies []ethno.Anomaly, windowDays float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Triangulation: %s\n\n", s.Title)
	notes := s.Field.Notes("")
	res := ethno.Triangulate(notes, anomalies, windowDays)
	fmt.Fprintf(&b, "%d/%d anomalies explained by field notes (%.0f%%).\n\n",
		res.Explained, res.Anomalies, 100*res.ExplainedShare())
	for i, a := range anomalies {
		fmt.Fprintf(&b, "- day %.0f %s: ", a.Day, a.Label)
		ms := res.Matches[i]
		if len(ms) == 0 {
			b.WriteString("unexplained\n")
			continue
		}
		var frags []string
		for _, ni := range ms {
			n := notes[ni]
			frags = append(frags, fmt.Sprintf("%s (%s, day %.0f)", n.Text, n.Kind, n.Day))
		}
		b.WriteString(strings.Join(frags, "; ") + "\n")
	}
	return b.String()
}
