package qualcode

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

func newTestCodebook(t *testing.T, ids ...string) *Codebook {
	t.Helper()
	cb := NewCodebook()
	for _, id := range ids {
		if err := cb.Add(Code{ID: id, Name: id}); err != nil {
			t.Fatal(err)
		}
	}
	return cb
}

func TestCodebookHierarchy(t *testing.T) {
	cb := NewCodebook()
	if err := cb.Add(Code{ID: "methods", Name: "Methods"}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Add(Code{ID: "interview", Parent: "methods"}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Add(Code{ID: "semi-structured", Parent: "interview"}); err != nil {
		t.Fatal(err)
	}
	if cb.Depth("methods") != 0 || cb.Depth("interview") != 1 || cb.Depth("semi-structured") != 2 {
		t.Error("depths wrong")
	}
	anc := cb.Ancestors("semi-structured")
	if len(anc) != 2 || anc[0] != "interview" || anc[1] != "methods" {
		t.Errorf("ancestors = %v", anc)
	}
	if roots := cb.Roots(); len(roots) != 1 || roots[0] != "methods" {
		t.Errorf("roots = %v", roots)
	}
}

func TestCodebookValidation(t *testing.T) {
	cb := NewCodebook()
	if err := cb.Add(Code{}); err == nil {
		t.Error("empty ID accepted")
	}
	_ = cb.Add(Code{ID: "a"})
	if err := cb.Add(Code{ID: "a"}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := cb.Add(Code{ID: "b", Parent: "missing"}); err == nil {
		t.Error("unknown parent accepted")
	}
	if cb.Depth("missing") != -1 {
		t.Error("depth of unknown should be -1")
	}
}

func newTestProject(t *testing.T) *Project {
	t.Helper()
	cb := newTestCodebook(t, "x", "y", "z")
	p := NewProject(cb)
	if err := p.AddDocument(Document{
		ID: "d1",
		Segments: []Segment{
			{ID: 0, Speaker: "Alice", Text: "segment zero"},
			{ID: 1, Speaker: "Bob", Text: "segment one"},
			{ID: 2, Speaker: "Alice", Text: "segment two"},
			{ID: 3, Speaker: "Cara", Text: "segment three"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProjectValidation(t *testing.T) {
	p := newTestProject(t)
	if err := p.AddDocument(Document{ID: "d1"}); err == nil {
		t.Error("duplicate document accepted")
	}
	if err := p.AddDocument(Document{ID: "d2", Segments: []Segment{{ID: 0}, {ID: 0}}}); err == nil {
		t.Error("duplicate segment IDs accepted")
	}
	if err := p.Annotate(Annotation{DocID: "nope", SegmentID: 0, CodeID: "x", Coder: "c"}); err == nil {
		t.Error("unknown document accepted")
	}
	if err := p.Annotate(Annotation{DocID: "d1", SegmentID: 99, CodeID: "x", Coder: "c"}); err == nil {
		t.Error("unknown segment accepted")
	}
	if err := p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "nope", Coder: "c"}); err == nil {
		t.Error("unknown code accepted")
	}
	if err := p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x"}); err == nil {
		t.Error("empty coder accepted")
	}
}

func TestAnnotateIdempotent(t *testing.T) {
	p := newTestProject(t)
	a := Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"}
	if err := p.Annotate(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Annotate(a); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Annotations()); got != 1 {
		t.Errorf("annotations = %d, want 1", got)
	}
}

func TestCodesForSorted(t *testing.T) {
	p := newTestProject(t)
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "y", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"})
	got := p.CodesFor("d1", 0, "c1")
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("codes = %v", got)
	}
}

func TestCohenKappaZeroWhenChanceLevel(t *testing.T) {
	p := newTestProject(t)
	// c1: x on {0,1}; c2: x on {0,2}. po=0.5, pe=0.5 → kappa = 0.
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c2"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 2, CodeID: "x", Coder: "c2"})
	if k := p.CohenKappa("c1", "c2", "x"); math.Abs(k) > 1e-9 {
		t.Errorf("kappa = %g, want 0", k)
	}
}

func TestCohenKappaPerfect(t *testing.T) {
	p := newTestProject(t)
	for _, c := range []string{"c1", "c2"} {
		_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: c})
		_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 2, CodeID: "x", Coder: c})
	}
	if k := p.CohenKappa("c1", "c2", "x"); math.Abs(k-1) > 1e-9 {
		t.Errorf("kappa = %g, want 1", k)
	}
}

func TestCohenKappaDegenerate(t *testing.T) {
	p := newTestProject(t)
	// Neither coder ever applies "z": po=1, pe=1 → defined as 1.
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c2"})
	if k := p.CohenKappa("c1", "c2", "z"); k != 1 {
		t.Errorf("degenerate kappa = %g, want 1", k)
	}
}

func TestFleissKappaPerfectAndPoor(t *testing.T) {
	p := newTestProject(t)
	for _, c := range []string{"c1", "c2", "c3"} {
		_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: c})
		_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "y", Coder: c})
	}
	if k := p.FleissKappa("x"); math.Abs(k-1) > 1e-9 {
		t.Errorf("perfect fleiss = %g, want 1", k)
	}
	// One coder: NaN.
	p2 := newTestProject(t)
	_ = p2.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "solo"})
	if !math.IsNaN(p2.FleissKappa("x")) {
		t.Error("single-coder fleiss should be NaN")
	}
}

func TestKrippendorffPerfect(t *testing.T) {
	p := newTestProject(t)
	for _, c := range []string{"c1", "c2"} {
		_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: c})
		_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "y", Coder: c})
		_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 2, CodeID: "z", Coder: c})
	}
	if a := p.KrippendorffAlpha(); math.Abs(a-1) > 1e-9 {
		t.Errorf("perfect alpha = %g, want 1", a)
	}
}

func TestKrippendorffSystematicDisagreement(t *testing.T) {
	p := newTestProject(t)
	// Coders never agree.
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "y", Coder: "c2"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "y", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "x", Coder: "c2"})
	if a := p.KrippendorffAlpha(); a > 0 {
		t.Errorf("alpha = %g, want <= 0 for systematic disagreement", a)
	}
}

func TestKrippendorffNoRatedUnits(t *testing.T) {
	p := newTestProject(t)
	if !math.IsNaN(p.KrippendorffAlpha()) {
		t.Error("alpha with no ratings should be NaN")
	}
}

func TestPercentAgreement(t *testing.T) {
	p := newTestProject(t)
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c2"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "y", Coder: "c1"})
	// Segments 2,3 both uncoded (agree); segment 1 disagrees.
	if got := p.PercentAgreement("c1", "c2"); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("agreement = %g, want 0.75", got)
	}
}

func TestCooccurrence(t *testing.T) {
	p := newTestProject(t)
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "y", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "y", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "z", Coder: "c2"})
	co := p.Cooccurrence()
	if co[[2]string{"x", "y"}] != 2 {
		t.Errorf("x|y co-occurrence = %d, want 2", co[[2]string{"x", "y"}])
	}
	if co[[2]string{"x", "z"}] != 0 {
		t.Errorf("cross-coder co-occurrence should not count")
	}
}

func TestThemesClusterCompanionCodes(t *testing.T) {
	cb := newTestCodebook(t, "a1", "a2", "b1", "b2", "lone")
	p := NewProject(cb)
	segs := make([]Segment, 20)
	for i := range segs {
		segs[i] = Segment{ID: i, Speaker: "S", Text: "t"}
	}
	if err := p.AddDocument(Document{ID: "d", Segments: segs}); err != nil {
		t.Fatal(err)
	}
	// a1+a2 co-occur on 8 segments, b1+b2 on 8 others.
	for i := 0; i < 8; i++ {
		_ = p.Annotate(Annotation{DocID: "d", SegmentID: i, CodeID: "a1", Coder: "c"})
		_ = p.Annotate(Annotation{DocID: "d", SegmentID: i, CodeID: "a2", Coder: "c"})
		_ = p.Annotate(Annotation{DocID: "d", SegmentID: i + 10, CodeID: "b1", Coder: "c"})
		_ = p.Annotate(Annotation{DocID: "d", SegmentID: i + 10, CodeID: "b2", Coder: "c"})
	}
	themes := p.Themes(2, rng.New(1))
	if len(themes) != 2 {
		t.Fatalf("themes = %+v, want 2 clusters", themes)
	}
	for _, th := range themes {
		if len(th.Codes) != 2 {
			t.Errorf("theme = %+v", th)
		}
		joined := strings.Join(th.Codes, ",")
		if joined != "a1,a2" && joined != "b1,b2" {
			t.Errorf("unexpected theme %q", joined)
		}
		if th.Support != 8 {
			t.Errorf("support = %d, want 8", th.Support)
		}
	}
}

func TestQuotesRedaction(t *testing.T) {
	p := newTestProject(t)
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 2, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "x", Coder: "c1"})
	quotes := p.Quotes("x", 1, true)
	if len(quotes) != 3 {
		t.Fatalf("quotes = %d, want 3", len(quotes))
	}
	// Alice appears at segments 0 and 2; pseudonyms must be stable.
	if quotes[0].Speaker != "P1" || quotes[2].Speaker != "P1" {
		t.Errorf("pseudonyms not stable: %v / %v", quotes[0].Speaker, quotes[2].Speaker)
	}
	if quotes[1].Speaker != "P2" {
		t.Errorf("second speaker = %v, want P2", quotes[1].Speaker)
	}
	plain := p.Quotes("x", 1, false)
	if plain[0].Speaker != "Alice" {
		t.Errorf("unredacted speaker = %v", plain[0].Speaker)
	}
}

func TestQuotesMinCoders(t *testing.T) {
	p := newTestProject(t)
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c1"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 0, CodeID: "x", Coder: "c2"})
	_ = p.Annotate(Annotation{DocID: "d1", SegmentID: 1, CodeID: "x", Coder: "c1"})
	if got := p.Quotes("x", 2, false); len(got) != 1 || got[0].SegmentID != 0 {
		t.Errorf("minCoders quotes = %+v", got)
	}
}

func TestSaturationCurveMonotone(t *testing.T) {
	cb := newTestCodebook(t, "x", "y", "z")
	p := NewProject(cb)
	for i, codes := range [][]string{{"x"}, {"x", "y"}, {"y"}, {"z"}} {
		docID := string(rune('a' + i))
		_ = p.AddDocument(Document{ID: docID, Segments: []Segment{{ID: 0}}})
		for _, c := range codes {
			_ = p.Annotate(Annotation{DocID: docID, SegmentID: 0, CodeID: c, Coder: "c"})
		}
	}
	curve := p.SaturationCurve()
	want := []int{1, 2, 2, 3}
	for i := range want {
		if curve[i] != want[i] {
			t.Fatalf("curve = %v, want %v", curve, want)
		}
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	p, truth, err := GenerateCorpus(SynthConfig{Docs: 5, SegsPerDoc: 10}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.DocumentIDs()) != 5 {
		t.Fatalf("docs = %d", len(p.DocumentIDs()))
	}
	if p.Codebook.Len() != len(DefaultVocabulary()) {
		t.Errorf("codebook size = %d", p.Codebook.Len())
	}
	for _, docID := range p.DocumentIDs() {
		d, _ := p.Document(docID)
		if len(d.Segments) != 10 {
			t.Fatalf("segments = %d", len(d.Segments))
		}
		for _, s := range d.Segments {
			if truth.Code(docID, s.ID) == "" {
				t.Fatalf("segment %s/%d has no latent code", docID, s.ID)
			}
			if s.Text == "" {
				t.Fatal("empty segment text")
			}
		}
	}
}

func TestGenerateCorpusValidation(t *testing.T) {
	if _, _, err := GenerateCorpus(SynthConfig{Docs: 0, SegsPerDoc: 5}, rng.New(1)); err == nil {
		t.Error("zero docs accepted")
	}
}

func TestSimulatedCoderAccuracyOne(t *testing.T) {
	cfg := SynthConfig{Docs: 3, SegsPerDoc: 8}
	p, truth, err := GenerateCorpus(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	sc := SimulatedCoder{Name: "perfect", Accuracy: 1}
	if err := sc.CodeProject(p, truth, cfg, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	for _, docID := range p.DocumentIDs() {
		d, _ := p.Document(docID)
		for _, s := range d.Segments {
			got := p.CodesFor(docID, s.ID, "perfect")
			if len(got) != 1 || got[0] != truth.Code(docID, s.ID) {
				t.Fatalf("perfect coder wrong at %s/%d: %v", docID, s.ID, got)
			}
		}
	}
}

func TestE6ReliabilityImprovesWithIterations(t *testing.T) {
	rows, err := ReliabilityCurve(5, 3, 0.55, 0.45, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if !(last.MeanKappa > first.MeanKappa) {
		t.Errorf("kappa did not improve: %g -> %g", first.MeanKappa, last.MeanKappa)
	}
	if !(last.KrippAlpha > first.KrippAlpha) {
		t.Errorf("alpha did not improve: %g -> %g", first.KrippAlpha, last.KrippAlpha)
	}
	if !(last.Agreement > first.Agreement) {
		t.Errorf("agreement did not improve: %g -> %g", first.Agreement, last.Agreement)
	}
	if last.MeanKappa < 0.75 {
		t.Errorf("final kappa %g should indicate substantial agreement", last.MeanKappa)
	}
	if first.KrippAlpha > 0.5 {
		t.Errorf("initial alpha %g should be low for noisy coders", first.KrippAlpha)
	}
	for _, row := range rows {
		if row.CoderAccuracy < 0.55 || row.CoderAccuracy > 1 {
			t.Errorf("accuracy = %g out of range", row.CoderAccuracy)
		}
	}
}

func TestE6Deterministic(t *testing.T) {
	a, err := ReliabilityCurve(3, 2, 0.6, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReliabilityCurve(3, 2, 0.6, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func BenchmarkReliabilityCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ReliabilityCurve(3, 3, 0.6, 0.4, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKrippendorffAlpha(b *testing.B) {
	cfg := SynthConfig{Docs: 10, SegsPerDoc: 15}
	p, truth, err := GenerateCorpus(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	for c := 0; c < 3; c++ {
		sc := SimulatedCoder{Name: string(rune('a' + c)), Accuracy: 0.8}
		if err := sc.CodeProject(p, truth, cfg, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.KrippendorffAlpha()
	}
}
