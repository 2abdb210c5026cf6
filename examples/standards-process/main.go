// standards-process walks the paper's §2 history argument: research reaches
// practice through open, practitioner-engaged processes (IETF-style), and
// the closed consortium counterfactual standardizes fast but deploys
// narrowly. It also connects the result back to a PAR engagement matrix —
// a working group *is* a standing partnership. The E11 table is the
// registered scenario run at its defaults, exactly as the report prints it.
//
// Run with:
//
//	go run ./examples/standards-process
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiment"
	"repro/internal/par"
	_ "repro/internal/standards"
)

func main() {
	log.SetFlags(0)

	sc, ok := experiment.Get("E11")
	if !ok {
		log.Fatal("scenario E11 is not registered")
	}
	res, err := (&experiment.Runner{}).RunOne(context.Background(), experiment.NewJob(sc))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiment.RenderMarkdown([]*experiment.Result{res}))
	fmt.Println("\nReading: operators in the room pull designs toward real needs")
	fmt.Println("(fit), and later champion deployment. The consortium ratifies 3x")
	fmt.Println("faster — and its standards go almost nowhere outside its members.")

	// The WG as a PAR project: the same engagement vocabulary applies.
	fmt.Println("\n== The working group as a standing partnership ==")
	wg := par.NewProject("Routing Area WG")
	for _, s := range []par.Stakeholder{
		{ID: "researchers", Name: "University groups"},
		{ID: "operators", Name: "Network operators", ConsentRecorded: true},
		{ID: "vendors", Name: "Equipment vendors"},
	} {
		if err := wg.AddStakeholder(s); err != nil {
			log.Fatal(err)
		}
	}
	engage := []struct {
		who   string
		phase par.Phase
		level par.Level
	}{
		{"researchers", par.ProblemFormation, par.Collaborating},
		{"operators", par.ProblemFormation, par.CommunityLed},
		{"researchers", par.SolutionDesign, par.CommunityLed},
		{"operators", par.SolutionDesign, par.Collaborating},
		{"vendors", par.Implementation, par.CommunityLed},
		{"operators", par.Evaluation, par.CommunityLed},
		{"researchers", par.Publication, par.Collaborating},
	}
	for _, e := range engage {
		if err := wg.Engage(par.Engagement{StakeholderID: e.who, Phase: e.phase, Level: e.level}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("participation coverage score: %.2f\n", wg.CoverageScore())
	fmt.Println("phase-by-phase leads:")
	for _, ph := range par.Phases() {
		for _, id := range wg.StakeholderIDs() {
			if lvl := wg.LevelAt(ph, id); lvl >= par.Collaborating {
				fmt.Printf("  %-18s %-12s %s\n", ph, id, lvl)
			}
		}
	}
}
