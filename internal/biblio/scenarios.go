package biblio

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Scenario registrations for the bibliometric experiments: E5 (who is in
// the room), E15 (CFP dynamics), and the auxiliary coauthorship-graph study
// behind biblioscan's default report.

func init() {
	experiment.Register(experiment.Def{
		ID:    "E5",
		Title: "Who is in the room",
		Claim: "Qualitative work concentrates in an HCI-adjacent venue while systems venues stay quantitative; affiliations concentrate (high Gini, heavy top-10 share) and Global-South authorship stays low.",
		Seed:  1,
		Params: experiment.Schema{
			{Name: "papers", Kind: experiment.Int, Default: 2000, Min: experiment.Bound(1), Doc: "corpus size"},
			{Name: "authors", Kind: experiment.Int, Default: 1200, Min: experiment.Bound(5), Doc: "author population"},
			{Name: "affiliations", Kind: experiment.Int, Default: 220, Min: experiment.Bound(1), Doc: "institution count (Zipf-sized)"},
			{Name: "south-frac", Kind: experiment.Float, Default: 0.12, Doc: "fraction of authors from the Global South"},
			{Name: "pref-attachment", Kind: experiment.Float, Default: 0.85, Doc: "weight of past productivity in author selection"},
		},
		Run: runE5,
	})
	experiment.Register(experiment.Def{
		ID:    "E15",
		Title: "CFP dynamics",
		Claim: "An implicit acceptance discount suppresses qualitative submissions over decades; removing it (the CFP intervention) recovers the submitted and accepted mix within a few years.",
		Seed:  1,
		Params: experiment.Schema{
			{Name: "years", Kind: experiment.Int, Default: 40, Min: experiment.Bound(1), Doc: "years simulated"},
			{Name: "intervention-year", Kind: experiment.Int, Default: 20, Doc: "year the CFP change takes effect (-1 = never)"},
			{Name: "researchers", Kind: experiment.Int, Default: 300, Min: experiment.Bound(1), Doc: "researcher population"},
			{Name: "conformity", Kind: experiment.Float, Default: 0.6, Doc: "weight of the venue's observed mix in method choice"},
			{Name: "qual-weight", Kind: experiment.Float, Default: 0.35, Doc: "pre-intervention acceptance multiplier for qualitative work"},
			{Name: "base-accept", Kind: experiment.Float, Default: 0.25, Doc: "acceptance probability of a method-favoured paper"},
		},
		Run: runE15,
	})
	experiment.Register(experiment.Def{
		ID:    "biblio-graph",
		Title: "Coauthorship graph structure",
		Claim: "The coauthorship graph shows a giant component, heavy-tailed degrees, and a small dense core of brokers bridging otherwise-separate clusters.",
		Seed:  1,
		Aux:   true,
		Params: experiment.Schema{
			{Name: "papers", Kind: experiment.Int, Default: 5000, Min: experiment.Bound(1), Doc: "corpus size"},
			{Name: "authors", Kind: experiment.Int, Default: 2500, Min: experiment.Bound(5), Doc: "author population"},
			{Name: "brokers", Kind: experiment.Int, Default: 5, Min: experiment.Bound(0), Doc: "top betweenness brokers to list"},
		},
		Run: runGraph,
	})
}

// runE5 computes the per-venue concentration rows.
func runE5(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	cfg := DefaultGenConfig()
	cfg.Papers = p.Int("papers")
	cfg.Authors = p.Int("authors")
	cfg.Affiliations = p.Int("affiliations")
	cfg.SouthFrac = p.Float("south-frac")
	cfg.PrefAttachment = p.Float("pref-attachment")
	cfg.Seed = seed
	rows, err := RunE5(cfg)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{}
	t := res.AddTable("E5", "Who is in the room",
		"venue", "papers", "qual-share", "classified-qual", "affil-gini", "top10-share", "south-share")
	for _, r := range rows {
		t.AddRow(r.Venue, experiment.I(r.Papers), experiment.F3(r.QualitativeShare),
			experiment.F3(r.ClassifiedQual), experiment.F3(r.AffiliationGini),
			experiment.F3(r.Top10AffilShare), experiment.F3(r.SouthAuthorShare))
	}
	return res, nil
}

// e15Config maps E15's params onto the CFP model.
func e15Config(p experiment.Values, seed uint64) CFPConfig {
	return CFPConfig{
		Researchers:      p.Int("researchers"),
		Years:            p.Int("years"),
		Conformity:       p.Float("conformity"),
		QualWeight:       p.Float("qual-weight"),
		BaseAccept:       p.Float("base-accept"),
		InterventionYear: p.Int("intervention-year"),
		Seed:             seed,
	}
}

// runE15 simulates the CFP intervention, sampling every fourth year plus the
// two years straddling the intervention.
func runE15(_ context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	cfg := e15Config(p, seed)
	rows, err := RunCFP(cfg)
	if err != nil {
		return nil, err
	}
	iv := cfg.InterventionYear
	res := &experiment.Result{}
	t := res.AddTable("E15", fmt.Sprintf("CFP dynamics (intervention at year %d)", iv),
		"year", "weight", "submitted-qual", "accepted-qual")
	for _, r := range rows {
		if r.Year%4 == 0 || r.Year == iv || r.Year == iv+1 {
			t.AddRow(experiment.I(r.Year), experiment.F3(r.QualWeightInEffect),
				experiment.F3(r.SubmittedQualShare), experiment.F3(r.AcceptedQualShare))
		}
	}
	return res, nil
}

// runGraph generates a corpus and summarizes its coauthorship graph: global
// structure, then the top brokers by betweenness (parallel over sources but
// bit-identical to the serial computation for any worker count).
func runGraph(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
	top := p.Int("brokers")
	cfg := DefaultGenConfig()
	cfg.Papers = p.Int("papers")
	cfg.Authors = p.Int("authors")
	cfg.Seed = seed
	c, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	g, authorIDs := c.CoauthorGraph()
	degs := make([]float64, g.N())
	for u := 0; u < g.N(); u++ {
		degs[u] = float64(g.Degree(u))
	}
	_, communities := g.LabelPropagation(rng.New(seed), 50)
	core := g.KCore()
	degeneracy := 0
	for _, k := range core {
		degeneracy = max(degeneracy, k)
	}
	inCore := 0
	for _, k := range core {
		if k == degeneracy {
			inCore++
		}
	}

	res := &experiment.Result{}
	t := res.AddTable("biblio-graph", "Coauthorship graph structure", "metric", "value")
	t.AddRow("authors", experiment.I(g.N()))
	t.AddRow("edges", experiment.I(g.M()))
	t.AddRow("degree-mean", experiment.FP(stats.Mean(degs), 1))
	t.AddRow("degree-median", experiment.FP(stats.Median(degs), 0))
	t.AddRow("degree-p95", experiment.FP(stats.Quantile(degs, 0.95), 0))
	t.AddRow("degree-max", experiment.FP(stats.Max(degs), 0))
	t.AddRow("degree-gini", experiment.F3(stats.Gini(degs)))
	t.AddRow("giant-component", experiment.I(g.GiantComponentSize()))
	t.AddRow("communities", experiment.I(communities))
	t.AddRow("degree-assortativity", experiment.F3(g.DegreeAssortativity()))
	t.AddRow("degeneracy", experiment.I(degeneracy))
	t.AddRow("innermost-core", experiment.I(inCore))

	workers := experiment.WorkersFrom(ctx)
	bc, err := g.BetweennessCentralityCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	cc, err := g.ClosenessCentralityCtx(ctx, workers)
	if err != nil {
		return nil, err
	}
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if bc[order[a]] != bc[order[b]] {
			return bc[order[a]] > bc[order[b]]
		}
		return order[a] < order[b]
	})
	if g.N() < top {
		top = g.N()
	}
	tb := res.AddTable("biblio-brokers", "Top brokers (betweenness — who bridges the room)",
		"author", "betweenness", "closeness", "degree")
	for _, u := range order[:top] {
		tb.AddRow(experiment.I(authorIDs[u]), experiment.FP(bc[u], 1),
			experiment.F3(cc[u]), experiment.I(g.Degree(u)))
	}
	return res, nil
}
