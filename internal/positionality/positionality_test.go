package positionality

import (
	"strings"
	"testing"
)

func sampleResearcher() Researcher {
	return Researcher{
		Name: "Dr. Example",
		Attributes: []Attribute{
			{Kind: Expertise, Value: "network engineering expert", Topics: []string{"routing"}, Disclosed: true},
			{Kind: Location, Value: "the Global North", Topics: []string{"access"}, Disclosed: true},
			{Kind: Belief, Value: "decentralization is a natural good", Topics: []string{"decentralization"}, Disclosed: false},
			{Kind: Membership, Value: "a community network collective", Topics: []string{"community-networks"}, Disclosed: true},
			{Kind: Affiliation, Value: "Vendor X research lab", Topics: []string{"datacenter"}, Disclosed: false},
		},
	}
}

func TestStatementIncludesOnlyDisclosed(t *testing.T) {
	s := sampleResearcher().Statement()
	for _, want := range []string{"Dr. Example", "network engineering expert", "the Global North", "community network collective"} {
		if !strings.Contains(s, want) {
			t.Errorf("statement missing %q: %s", want, s)
		}
	}
	for _, hidden := range []string{"decentralization is a natural good", "Vendor X"} {
		if strings.Contains(s, hidden) {
			t.Errorf("statement leaked undisclosed %q", hidden)
		}
	}
}

func TestStatementDeterministic(t *testing.T) {
	r := sampleResearcher()
	if r.Statement() != r.Statement() {
		t.Error("statement not deterministic")
	}
}

func TestStatementEmpty(t *testing.T) {
	r := Researcher{Name: "Anon"}
	if !strings.Contains(r.Statement(), "no positionality statement") {
		t.Errorf("empty statement = %q", r.Statement())
	}
}

func TestAttrKindString(t *testing.T) {
	if Belief.String() != "belief" || Expertise.String() != "expertise" {
		t.Error("kind strings wrong")
	}
}

func TestRelevanceAuditFlagsUndisclosed(t *testing.T) {
	r := sampleResearcher()
	claims := []Claim{
		{ID: "c1", Text: "Decentralized designs are preferable", Topics: []string{"decentralization"}},
		{ID: "c2", Text: "Routing converges quickly", Topics: []string{"routing"}},
		{ID: "c3", Text: "Unrelated", Topics: []string{"quantum"}},
	}
	entries := RelevanceAudit(r, claims)
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].ClaimID != "c1" || !entries[0].Undisclosed {
		t.Errorf("first entry = %+v, want undisclosed belief on c1", entries[0])
	}
	if entries[1].ClaimID != "c2" || entries[1].Undisclosed {
		t.Errorf("second entry = %+v, want disclosed expertise on c2", entries[1])
	}
	gaps := DisclosureGaps(entries)
	if len(gaps) != 1 || gaps[0].Attribute.Value != "decentralization is a natural good" {
		t.Errorf("gaps = %+v", gaps)
	}
}

func TestSelectAgendaLensShiftsSelection(t *testing.T) {
	items := []AgendaItem{
		{ID: 0, Topics: []string{"x"}, BaseValue: 0.5},
		{ID: 1, Topics: []string{"y"}, BaseValue: 0.6},
		{ID: 2, Topics: []string{"x"}, BaseValue: 0.55},
	}
	neutral := SelectAgenda(items, Lens{}, 2)
	if len(neutral) != 2 || neutral[0] != 1 || neutral[1] != 2 {
		t.Errorf("neutral agenda = %v, want [1 2]", neutral)
	}
	biased := SelectAgenda(items, Lens{"x": 0.5}, 2)
	if biased[0] != 0 || biased[1] != 2 {
		t.Errorf("biased agenda = %v, want [0 2]", biased)
	}
}

func TestSelectAgendaNegativeMultiplierFloors(t *testing.T) {
	items := []AgendaItem{{ID: 0, Topics: []string{"x"}, BaseValue: 1}}
	got := SelectAgenda(items, Lens{"x": -5}, 1)
	if len(got) != 1 {
		t.Fatal("selection size wrong")
	}
}

func TestJaccardDivergence(t *testing.T) {
	if d := JaccardDivergence([]int{1, 2}, []int{1, 2}); d != 0 {
		t.Errorf("identical divergence = %g", d)
	}
	if d := JaccardDivergence([]int{1}, []int{2}); d != 1 {
		t.Errorf("disjoint divergence = %g", d)
	}
	if d := JaccardDivergence(nil, nil); d != 0 {
		t.Errorf("empty divergence = %g", d)
	}
	if d := JaccardDivergence([]int{1, 2, 3}, []int{2, 3, 4}); d != 0.5 {
		t.Errorf("half-overlap divergence = %g, want 0.5", d)
	}
}

func TestE9LensDivergenceGrowsWithStrength(t *testing.T) {
	rows, err := RunLens(defaultLensConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Strength != 0 || rows[0].Divergence != 0 {
		t.Errorf("zero-strength row = %+v, want zero divergence", rows[0])
	}
	last := rows[len(rows)-1]
	if !(last.Divergence > 0.5) {
		t.Errorf("strong-lens divergence = %g, want substantial", last.Divergence)
	}
	// Weak monotonicity across the sweep.
	for i := 1; i < len(rows); i++ {
		if rows[i].Divergence+1e-9 < rows[i-1].Divergence {
			t.Errorf("divergence not monotone at %g: %g < %g",
				rows[i].Strength, rows[i].Divergence, rows[i-1].Divergence)
		}
	}
	// The proponent's agenda should be saturated with the contested topic
	// and the skeptic's nearly free of it at full strength.
	if !(last.ContestedShareProponent > last.ContestedShareSkeptic+0.5) {
		t.Errorf("contested shares: proponent %g vs skeptic %g",
			last.ContestedShareProponent, last.ContestedShareSkeptic)
	}
}

func TestE9Validation(t *testing.T) {
	if _, err := RunLens(LensConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestE9Deterministic(t *testing.T) {
	a, _ := RunLens(defaultLensConfig())
	b, _ := RunLens(defaultLensConfig())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func BenchmarkE9Lens(b *testing.B) {
	cfg := defaultLensConfig()
	for i := 0; i < b.N; i++ {
		if _, err := RunLens(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// defaultLensConfig returns the E9 scenario's default configuration.
func defaultLensConfig() LensConfig {
	return LensConfig{
		Items:              300,
		ContestedTopicFrac: 0.35,
		Select:             30,
		Strengths:          []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		Seed:               1,
	}
}
