// participatory-study demonstrates the PAR toolchain end to end (paper §2):
// the problem-discovery comparison between a data-driven and a community-
// driven pipeline (E4), the iterative co-design loop (E10), and how the
// fieldwork schedule (E7) and survey design (E8) choices interact with
// reaching the same community. Each table is the registered scenario run at
// its defaults, exactly as the report prints it.
//
// Run with:
//
//	go run ./examples/participatory-study
package main

import (
	"context"
	"fmt"
	"log"

	_ "repro/internal/ethno"
	"repro/internal/experiment"
	_ "repro/internal/par"
	"repro/internal/survey"
)

func main() {
	log.SetFlags(0)

	// The instrument a team would field if it surveyed the community
	// instead of partnering with it; E8 measures whom such a survey reaches.
	instrument := survey.Instrument{
		Title: "Operator needs",
		Questions: []survey.Question{
			{ID: "q1", Text: "The network meets my community's needs", Kind: survey.Likert, Scale: 5},
			{ID: "q2", Text: "Primary role", Kind: survey.MultipleChoice, Options: []string{"operator", "volunteer", "user"}},
			{ID: "q3", Text: "What should researchers work on?", Kind: survey.FreeText},
		},
	}
	if err := instrument.Validate(); err != nil {
		log.Fatal(err)
	}

	var jobs []experiment.Job
	for _, id := range []string{"E4", "E10", "E7", "E8"} {
		s, ok := experiment.Get(id)
		if !ok {
			log.Fatalf("scenario %s is not registered", id)
		}
		jobs = append(jobs, experiment.NewJob(s))
	}
	results, err := (&experiment.Runner{}).Run(context.Background(), jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiment.RenderMarkdown(results))
	fmt.Println("\nReading: cold surveys barely reach the operators PAR partners with;")
	fmt.Println("snowball referrals recover some reach, at the cost of cluster bias.")
}
