package biblio

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
)

func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus()
	authors := []Author{
		{ID: 0, Name: "A", Affiliation: "MIT", Region: "north"},
		{ID: 1, Name: "B", Affiliation: "MIT", Region: "north"},
		{ID: 2, Name: "C", Affiliation: "NSU", Region: "south"},
		{ID: 3, Name: "D", Affiliation: "UW", Region: "north"},
	}
	for _, a := range authors {
		if err := c.AddAuthor(a); err != nil {
			t.Fatal(err)
		}
	}
	papers := []Paper{
		{ID: 0, Venue: "SYS", Authors: []int{0, 1}, Method: SystemsBuilding},
		{ID: 1, Venue: "SYS", Authors: []int{0, 2}, Method: Measurement},
		{ID: 2, Venue: "HCI", Authors: []int{2, 3}, Method: Qualitative},
		{ID: 3, Venue: "HCI", Authors: []int{0, 1, 2}, Method: Mixed},
	}
	for _, p := range papers {
		if err := c.AddPaper(p); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestCorpusValidation(t *testing.T) {
	c := NewCorpus()
	_ = c.AddAuthor(Author{ID: 1})
	if err := c.AddAuthor(Author{ID: 1}); err == nil {
		t.Error("duplicate author accepted")
	}
	if err := c.AddPaper(Paper{ID: 0, Authors: []int{99}}); err == nil {
		t.Error("unknown author accepted")
	}
	if err := c.AddPaper(Paper{ID: 0}); err == nil {
		t.Error("authorless paper accepted")
	}
	if err := c.AddPaper(Paper{ID: 0, Authors: []int{1, 1}}); err == nil {
		t.Error("duplicate author on paper accepted")
	}
	_ = c.AddPaper(Paper{ID: 0, Authors: []int{1}})
	if err := c.AddPaper(Paper{ID: 0, Authors: []int{1}}); err == nil {
		t.Error("duplicate paper accepted")
	}
}

func TestCorpusQueries(t *testing.T) {
	c := smallCorpus(t)
	if c.NumAuthors() != 4 || c.NumPapers() != 4 {
		t.Errorf("sizes = %d/%d", c.NumAuthors(), c.NumPapers())
	}
	if got := c.Venues(); len(got) != 2 || got[0] != "HCI" || got[1] != "SYS" {
		t.Errorf("venues = %v", got)
	}
}

func TestCoauthorGraph(t *testing.T) {
	c := smallCorpus(t)
	g, ids := c.CoauthorGraph()
	if g.N() != 4 || len(ids) != 4 {
		t.Fatalf("graph size = %d", g.N())
	}
	// Authors 0 and 1 coauthored papers 0 and 3 → weight 2.
	var w01 float64
	for _, e := range g.Neighbors(0) {
		if e.To == 1 {
			w01 = e.Weight
		}
	}
	if w01 != 2 {
		t.Errorf("edge weight 0-1 = %g, want 2", w01)
	}
	if !g.HasEdge(2, 3) {
		t.Error("missing coauthor edge 2-3")
	}
	if g.HasEdge(1, 3) {
		t.Error("phantom edge 1-3")
	}
}

func TestMethodMix(t *testing.T) {
	c := smallCorpus(t)
	mix := c.MethodMix("HCI")
	if mix[Qualitative] != 0.5 || mix[Mixed] != 0.5 {
		t.Errorf("HCI mix = %v", mix)
	}
	all := c.MethodMix("")
	if all[SystemsBuilding] != 0.25 {
		t.Errorf("overall systems share = %g", all[SystemsBuilding])
	}
}

func TestClassifyAbstract(t *testing.T) {
	cases := []struct {
		abstract string
		want     Method
	}{
		{"we conducted interviews and ethnography with community stakeholders using participatory fieldwork", Qualitative},
		{"large-scale measurement from many vantage points over a longitudinal dataset with traceroute probing", Measurement},
		{"we prove a theorem establishing an optimal bound with a convergence proof", Theory},
		{"we present the implementation and deployment of a prototype with throughput evaluation on a testbed", SystemsBuilding},
		{"interviews and fieldwork with operators combined with traceroute measurement from vantage points and a longitudinal dataset study", Mixed},
	}
	for _, tc := range cases {
		if got := ClassifyAbstract(tc.abstract); got != tc.want {
			t.Errorf("ClassifyAbstract(%q) = %v, want %v", tc.abstract[:30], got, tc.want)
		}
	}
}

func TestClassifyAbstractDefault(t *testing.T) {
	if got := ClassifyAbstract("completely unrelated words here"); got != Measurement {
		t.Errorf("default classification = %v", got)
	}
}

func TestMethodString(t *testing.T) {
	if Qualitative.String() != "qualitative" || Mixed.String() != "mixed" {
		t.Error("method strings wrong")
	}
	if len(Methods()) != 5 {
		t.Error("method list wrong")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Papers = 600
	cfg.Authors = 400
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPapers() != 600 || c.NumAuthors() != 400 {
		t.Fatalf("sizes = %d/%d", c.NumPapers(), c.NumAuthors())
	}
	if got := len(c.Venues()); got != 4 {
		t.Errorf("venues = %d", got)
	}
	for _, id := range c.PaperIDs()[:20] {
		p, _ := c.Paper(id)
		if len(p.Authors) < 2 || len(p.Authors) > 5 {
			t.Errorf("paper %d has %d authors", id, len(p.Authors))
		}
		if !strings.Contains(p.Abstract, " ") {
			t.Errorf("paper %d abstract empty-ish", id)
		}
		if p.Year < cfg.FirstYear || p.Year >= cfg.FirstYear+cfg.YearSpan {
			t.Errorf("paper %d year %d out of range", id, p.Year)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestE5ConcentrationShapes(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Papers = 1500
	cfg.Authors = 900
	rows, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byVenue := map[string]E5Row{}
	for _, r := range rows {
		byVenue[r.Venue] = r
	}
	all, ok := byVenue["ALL"]
	if !ok {
		t.Fatal("missing ALL row")
	}
	// Claim: publication volume concentrates (few institutions dominate).
	if all.AffiliationGini < 0.5 {
		t.Errorf("affiliation Gini = %g, want concentrated (>0.5)", all.AffiliationGini)
	}
	if all.Top10AffilShare < 0.3 {
		t.Errorf("top-10 share = %g, want dominant", all.Top10AffilShare)
	}
	// Claim: the Global South is under-represented (at most its author base).
	if all.SouthAuthorShare > cfg.SouthFrac*1.5 {
		t.Errorf("south share = %g vs population %g", all.SouthAuthorShare, cfg.SouthFrac)
	}
	// Claim: qualitative work is nearly absent from core venues, alive at
	// the HCI venue.
	sys := byVenue["SYSCONF"]
	hci := byVenue["HCICONF"]
	if !(sys.QualitativeShare < 0.15) {
		t.Errorf("systems venue qualitative share = %g, want small", sys.QualitativeShare)
	}
	if !(hci.QualitativeShare > 0.5) {
		t.Errorf("HCI venue qualitative share = %g, want majority", hci.QualitativeShare)
	}
	if !(hci.QualitativeShare > 4*sys.QualitativeShare) {
		t.Errorf("venue gap too small: HCI %g vs SYS %g", hci.QualitativeShare, sys.QualitativeShare)
	}
	// The abstract classifier should roughly agree with the stored labels.
	for _, v := range []string{"SYSCONF", "HCICONF"} {
		r := byVenue[v]
		diff := r.QualitativeShare - r.ClassifiedQual
		if diff < -0.2 || diff > 0.2 {
			t.Errorf("%s: classifier share %g far from label share %g", v, r.ClassifiedQual, r.QualitativeShare)
		}
	}
}

func TestE5Deterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Papers = 300
	cfg.Authors = 200
	a, _ := RunE5(cfg)
	b, _ := RunE5(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestCoauthorGraphSkewUnderPrefAttachment(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Papers = 800
	cfg.Authors = 500
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.CoauthorGraph()
	maxDeg, sum := 0, 0
	for u := 0; u < g.N(); u++ {
		d := g.Degree(u)
		if d > maxDeg {
			maxDeg = d
		}
		sum += d
	}
	mean := float64(sum) / float64(g.N())
	if float64(maxDeg) < 4*mean {
		t.Errorf("coauthor degree max %d not heavy-tailed vs mean %.1f", maxDeg, mean)
	}
}

// TestCoauthorGraphBetweennessReproducible is the regression for adding
// edges in map order: adjacency order fixes the centralities' float
// accumulation order, so two builds of one corpus must give bit-identical
// betweenness at every worker count.
func TestCoauthorGraphBetweennessReproducible(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Papers = 600
	cfg.Authors = 300
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, _ := c.CoauthorGraph()
	want, err := first.BetweennessCentralityCtx(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for build := 0; build < 3; build++ {
		g, _ := c.CoauthorGraph()
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			got, err := g.BetweennessCentralityCtx(ctx, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("build %d workers=%d: cb[%d] = %v, first build %v", build, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestE5PrefAttachmentAblation(t *testing.T) {
	// Removing preferential attachment should reduce per-author publication
	// concentration: compare the Gini of per-author paper counts.
	authorGini := func(pref float64) float64 {
		cfg := DefaultGenConfig()
		cfg.Papers = 1200
		cfg.Authors = 800
		cfg.PrefAttachment = pref
		c, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[int]float64)
		for _, id := range c.PaperIDs() {
			p, _ := c.Paper(id)
			for _, a := range p.Authors {
				counts[a]++
			}
		}
		vals := make([]float64, 0, cfg.Authors)
		for i := 0; i < cfg.Authors; i++ {
			vals = append(vals, counts[i])
		}
		return stats.Gini(vals)
	}
	with := authorGini(0.85)
	without := authorGini(0)
	if !(with > without+0.05) {
		t.Errorf("pref-attachment Gini %g should clearly exceed uniform %g", with, without)
	}
}

func BenchmarkGenerateCorpus(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.Papers = 1000
	cfg.Authors = 600
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifyAbstract(b *testing.B) {
	abs := "we conducted interviews and ethnography with community stakeholders alongside traceroute measurement"
	for i := 0; i < b.N; i++ {
		_ = ClassifyAbstract(abs)
	}
}
