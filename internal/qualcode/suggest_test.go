package qualcode

import (
	"testing"

	"repro/internal/rng"
)

func TestTrainSuggesterValidation(t *testing.T) {
	cb := newTestCodebook(t, "x")
	p := NewProject(cb)
	if _, err := TrainSuggester(p, "nobody"); err == nil {
		t.Error("training on empty coder accepted")
	}
}

func TestSuggesterLearnsVocabulary(t *testing.T) {
	cfg := SynthConfig{Docs: 10, SegsPerDoc: 12}
	r := rng.New(41)
	p, truth, err := GenerateCorpus(cfg, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	// A fairly accurate human coder provides training labels.
	sc := SimulatedCoder{Name: "human", Accuracy: 0.9}
	if err := sc.CodeProject(p, truth, cfg, r.Split()); err != nil {
		t.Fatal(err)
	}
	s, err := TrainSuggester(p, "human")
	if err != nil {
		t.Fatal(err)
	}
	// In-sample accuracy should comfortably beat chance (1/6) and approach
	// the label quality.
	acc := suggesterAccuracy(t, s, p, truth, cfg)
	if acc < 0.6 {
		t.Errorf("suggester accuracy = %g, want well above chance", acc)
	}
}

func TestSuggesterGeneralizesToHeldOut(t *testing.T) {
	cfg := SynthConfig{Docs: 14, SegsPerDoc: 12}
	r := rng.New(43)
	train, trainTruth, err := GenerateCorpus(cfg, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	sc := SimulatedCoder{Name: "human", Accuracy: 0.9}
	if err := sc.CodeProject(train, trainTruth, cfg, r.Split()); err != nil {
		t.Fatal(err)
	}
	s, err := TrainSuggester(train, "human")
	if err != nil {
		t.Fatal(err)
	}
	// Fresh, never-seen corpus from the same vocabulary.
	heldCfg := SynthConfig{Docs: 6, SegsPerDoc: 12}
	held, heldTruth, err := GenerateCorpus(heldCfg, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	acc := suggesterAccuracy(t, s, held, heldTruth, heldCfg)
	if acc < 0.55 {
		t.Errorf("held-out accuracy = %g, want well above chance (1/6)", acc)
	}
}

// suggesterAccuracy codes every segment of p with s's top suggestion as
// coder "suggester" and returns its agreement with a perfect coder: the
// suggester's top-1 accuracy against the latent truth.
func suggesterAccuracy(t *testing.T, s *Suggester, p *Project, truth Truth, cfg SynthConfig) float64 {
	t.Helper()
	for _, docID := range p.DocumentIDs() {
		d, _ := p.Document(docID)
		for _, seg := range d.Segments {
			top := s.Suggest(seg.Text, 1)
			if err := p.Annotate(Annotation{DocID: docID, SegmentID: seg.ID, CodeID: top[0].CodeID, Coder: "suggester"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	perfect := SimulatedCoder{Name: "truth", Accuracy: 1}
	if err := perfect.CodeProject(p, truth, cfg, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	return p.PercentAgreement("suggester", "truth")
}

func TestSuggestConfidencesSumToOne(t *testing.T) {
	cfg := SynthConfig{Docs: 6, SegsPerDoc: 8}
	r := rng.New(47)
	p, truth, err := GenerateCorpus(cfg, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	sc := SimulatedCoder{Name: "h", Accuracy: 1}
	if err := sc.CodeProject(p, truth, cfg, r.Split()); err != nil {
		t.Fatal(err)
	}
	s, err := TrainSuggester(p, "h")
	if err != nil {
		t.Fatal(err)
	}
	all := s.Suggest("repair antenna climb roof", len(DefaultVocabulary()))
	sum := 0.0
	for _, sg := range all {
		if sg.Confidence < 0 || sg.Confidence > 1 {
			t.Fatalf("confidence %g out of range", sg.Confidence)
		}
		sum += sg.Confidence
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("confidences sum to %g", sum)
	}
	if all[0].CodeID != "maintenance" {
		t.Errorf("top suggestion = %s, want maintenance for repair vocabulary", all[0].CodeID)
	}
	// Top-k truncation.
	if got := s.Suggest("repair antenna", 2); len(got) != 2 {
		t.Errorf("k=2 returned %d", len(got))
	}
}

func TestSuggestUnknownTextStillRanks(t *testing.T) {
	cfg := SynthConfig{Docs: 4, SegsPerDoc: 6}
	r := rng.New(53)
	p, truth, err := GenerateCorpus(cfg, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	sc := SimulatedCoder{Name: "h", Accuracy: 1}
	_ = sc.CodeProject(p, truth, cfg, r.Split())
	s, err := TrainSuggester(p, "h")
	if err != nil {
		t.Fatal(err)
	}
	got := s.Suggest("zzz qqq completely novel words", 3)
	if len(got) == 0 {
		t.Fatal("no suggestions for OOV text")
	}
}

func BenchmarkSuggest(b *testing.B) {
	cfg := SynthConfig{Docs: 10, SegsPerDoc: 12}
	r := rng.New(1)
	p, truth, err := GenerateCorpus(cfg, r.Split())
	if err != nil {
		b.Fatal(err)
	}
	sc := SimulatedCoder{Name: "h", Accuracy: 0.9}
	if err := sc.CodeProject(p, truth, cfg, r.Split()); err != nil {
		b.Fatal(err)
	}
	s, err := TrainSuggester(p, "h")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Suggest("volunteer repair climb roof meeting vote", 3)
	}
}
