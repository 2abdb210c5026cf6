package qualcode

import (
	"testing"

	"repro/internal/rng"
)

func TestBuildConsensusValidation(t *testing.T) {
	cb := newTestCodebook(t, "x")
	p := NewProject(cb)
	if err := p.BuildConsensus("c", 2); err == nil {
		t.Error("consensus without coders accepted")
	}
	_ = p.AddDocument(Document{ID: "d", Segments: []Segment{{ID: 0}}})
	_ = p.Annotate(Annotation{DocID: "d", SegmentID: 0, CodeID: "x", Coder: "a"})
	if err := p.BuildConsensus("", 2); err == nil {
		t.Error("empty name accepted")
	}
	if err := p.BuildConsensus("a", 2); err == nil {
		t.Error("existing coder name accepted")
	}
}

func TestConsensusMajorityVote(t *testing.T) {
	cb := newTestCodebook(t, "x", "y", "z")
	p := NewProject(cb)
	_ = p.AddDocument(Document{ID: "d", Segments: []Segment{{ID: 0}, {ID: 1}, {ID: 2}}})
	// Segment 0: 2x "x", 1x "y" → consensus x.
	_ = p.Annotate(Annotation{DocID: "d", SegmentID: 0, CodeID: "x", Coder: "a"})
	_ = p.Annotate(Annotation{DocID: "d", SegmentID: 0, CodeID: "x", Coder: "b"})
	_ = p.Annotate(Annotation{DocID: "d", SegmentID: 0, CodeID: "y", Coder: "c"})
	// Segment 1: all different → discussion picks lexicographically first
	// among equal support.
	_ = p.Annotate(Annotation{DocID: "d", SegmentID: 1, CodeID: "z", Coder: "a"})
	_ = p.Annotate(Annotation{DocID: "d", SegmentID: 1, CodeID: "y", Coder: "b"})
	_ = p.Annotate(Annotation{DocID: "d", SegmentID: 1, CodeID: "x", Coder: "c"})
	// Segment 2: uncoded → stays uncoded.
	if err := p.BuildConsensus("consensus", 2); err != nil {
		t.Fatal(err)
	}
	if got := p.CodesFor("d", 0, "consensus"); len(got) != 1 || got[0] != "x" {
		t.Errorf("segment 0 consensus = %v", got)
	}
	if got := p.CodesFor("d", 1, "consensus"); len(got) != 1 || got[0] != "x" {
		t.Errorf("segment 1 consensus = %v (ties resolve to smallest)", got)
	}
	if got := p.CodesFor("d", 2, "consensus"); len(got) != 0 {
		t.Errorf("segment 2 consensus = %v, want empty", got)
	}
}

func TestConsensusBeatsIndividualCoders(t *testing.T) {
	cfg := SynthConfig{Docs: 12, SegsPerDoc: 12}
	r := rng.New(31)
	p, truth, err := GenerateCorpus(cfg, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	coderRNG := r.Split()
	names := []string{"a", "b", "c"}
	for _, n := range names {
		sc := SimulatedCoder{Name: n, Accuracy: 0.75}
		if err := sc.CodeProject(p, truth, cfg, coderRNG); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.BuildConsensus("consensus", 2); err != nil {
		t.Fatal(err)
	}
	// Every coder and the consensus apply one code per segment, so agreement
	// with a perfect coder is accuracy against the latent truth.
	perfect := SimulatedCoder{Name: "truth", Accuracy: 1}
	if err := perfect.CodeProject(p, truth, cfg, rng.New(32)); err != nil {
		t.Fatal(err)
	}
	var indivSum float64
	for _, n := range names {
		indivSum += p.PercentAgreement(n, "truth")
	}
	indiv := indivSum / float64(len(names))
	cons := p.PercentAgreement("consensus", "truth")
	if !(cons > indiv+0.05) {
		t.Errorf("consensus accuracy %g should clearly beat individual mean %g", cons, indiv)
	}
	if cons < 0.85 {
		t.Errorf("consensus accuracy %g unexpectedly low", cons)
	}
}
