package repro

// Integration tests: each test wires several packages together the way the
// examples and the paper's argument do, verifying the seams rather than the
// units.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/biblio"
	"repro/internal/core"
	"repro/internal/diary"
	"repro/internal/ethno"
	"repro/internal/ixp"
	"repro/internal/measure"
	"repro/internal/par"
	"repro/internal/positionality"
	"repro/internal/qualcode"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/textproc"
)

// TestMeasureToTriangulationPipeline runs the full mixed-methods loop the
// paper advocates: a quantitative trace detects *when* things happened;
// field notes explain *what* they were; the Study compiles the join.
func TestMeasureToTriangulationPipeline(t *testing.T) {
	events := []measure.Event{
		{Day: 60, Duration: 3, Magnitude: 40, Label: "storm damage"},
		{Day: 140, Duration: 3, Magnitude: 40, Label: "fiber cut"},
	}
	series, err := measure.Generate(measure.GenConfig{
		Metric: measure.LatencyMs, Days: 220, Base: 40, Noise: 2,
		Events: events, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	detections := measure.ZScoreDetect(series, 14, 4)
	if len(detections) < 2 {
		t.Fatalf("detector found %d events, want >= 2", len(detections))
	}

	study := core.NewStudy("Integration: trace + fieldwork")
	if err := study.Field.AddSite(ethno.Site{ID: "relay", MaxInsight: 10, Tau: 5, TravelDays: 1}); err != nil {
		t.Fatal(err)
	}
	// The ethnographer was on site around the first event only.
	if err := study.Field.Record(ethno.FieldNote{
		SiteID: "relay", Day: 61, Kind: ethno.Observation,
		Text: "storm bent the relay mast; volunteers waiting for a dry day to climb",
	}); err != nil {
		t.Fatal(err)
	}

	var anomalies []ethno.Anomaly
	for _, d := range detections {
		anomalies = append(anomalies, ethno.Anomaly{Day: float64(d.Day), Label: fmt.Sprintf("latency alarm day %d", d.Day)})
	}
	report := study.TriangulationReport(anomalies, 3)
	if !strings.Contains(report, "storm bent the relay mast") {
		t.Error("matched field note missing from report")
	}
	if !strings.Contains(report, "unexplained") {
		t.Error("the un-visited event should remain unexplained")
	}
}

// TestCircumventionLocalityVsIncumbentShare sweeps the incumbent's market
// share and checks, via the stats package, that overall locality under
// circumvention falls as the incumbent grows — the bigger the dominant
// player, the more the regulation's failure matters.
func TestCircumventionLocalityVsIncumbentShare(t *testing.T) {
	shares := []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	locality := make([]float64, len(shares))
	for i, s := range shares {
		row, err := ixp.RunCircumventionCtx(context.Background(), ixp.CircumventionConfig{
			Competitors: 5, IncumbentShare: s, Shells: 2, Mode: ixp.RegulationCircumvented,
		})
		if err != nil {
			t.Fatal(err)
		}
		locality[i] = row.DomesticShare
	}
	r := stats.Pearson(shares, locality)
	if !(r < -0.9) {
		t.Errorf("locality should fall with incumbent share: corr=%g, series=%v", r, locality)
	}
}

// TestDiaryEntriesAsCodedCorpus feeds one method's output into another:
// diary entries become qualcode documents, are coded by activity kind, and
// the resulting code counts mirror the diary dataset.
func TestDiaryEntriesAsCodedCorpus(t *testing.T) {
	// A four-week study of 24 participants at E12's compliance rates.
	cfg := diary.Config{
		Participants:   24,
		Days:           28,
		Activities:     diary.DefaultActivities(),
		BaseAdherence:  0.9,
		AdherenceDecay: 0.97,
		PromptBoost:    1.25,
		Seed:           1,
	}
	ds, err := diary.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cb := qualcode.NewCodebook()
	for _, a := range cfg.Activities {
		if err := cb.Add(qualcode.Code{ID: a.Kind, Name: a.Kind}); err != nil {
			t.Fatal(err)
		}
	}
	project := qualcode.NewProject(cb)
	// One document per participant; one segment per diary entry.
	segsByParticipant := make(map[int][]qualcode.Segment)
	entryCodes := make(map[[2]int][]string)
	for i, e := range ds.Entries {
		seg := qualcode.Segment{
			ID:      i,
			Speaker: fmt.Sprintf("P%d", e.Participant),
			Text:    strings.Join(e.Reported, " "),
		}
		segsByParticipant[e.Participant] = append(segsByParticipant[e.Participant], seg)
		entryCodes[[2]int{e.Participant, seg.ID}] = e.Reported
	}
	for p, segs := range segsByParticipant {
		if err := project.AddDocument(qualcode.Document{ID: fmt.Sprintf("p%02d", p), Segments: segs}); err != nil {
			t.Fatal(err)
		}
	}
	applied := 0
	for p, segs := range segsByParticipant {
		for _, seg := range segs {
			for _, code := range entryCodes[[2]int{p, seg.ID}] {
				if err := project.Annotate(qualcode.Annotation{
					DocID: fmt.Sprintf("p%02d", p), SegmentID: seg.ID, CodeID: code, Coder: "analyst",
				}); err != nil {
					t.Fatal(err)
				}
				applied++
			}
		}
	}
	counts := project.CodeCounts()
	totalReported := 0
	for _, e := range ds.Entries {
		totalReported += len(e.Reported)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != totalReported || sum != applied {
		t.Errorf("coded %d, applied %d, reported %d — pipeline lost data", sum, applied, totalReported)
	}
}

// TestCorpusTextSimilarityRecoversLatentCodes checks qualcode + textproc:
// segments sharing a latent code are textually closer (TF-IDF cosine) than
// segments with different codes.
func TestCorpusTextSimilarityRecoversLatentCodes(t *testing.T) {
	cfg := qualcode.SynthConfig{Docs: 6, SegsPerDoc: 10}
	project, truth, err := qualcode.GenerateCorpus(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	var corpus textproc.Corpus
	type segRef struct {
		code string
		idx  int
	}
	var refs []segRef
	for _, docID := range project.DocumentIDs() {
		d, _ := project.Document(docID)
		for _, s := range d.Segments {
			idx := corpus.Add(s.Text)
			refs = append(refs, segRef{code: truth.Code(docID, s.ID), idx: idx})
		}
	}
	var sameSum, diffSum float64
	var sameN, diffN int
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			sim := textproc.Cosine(corpus.TFIDF(refs[i].idx), corpus.TFIDF(refs[j].idx))
			if refs[i].code == refs[j].code {
				sameSum += sim
				sameN++
			} else {
				diffSum += sim
				diffN++
			}
		}
	}
	same := sameSum / float64(sameN)
	diff := diffSum / float64(diffN)
	if !(same > 2*diff) {
		t.Errorf("same-code similarity %g should dominate cross-code %g", same, diff)
	}
}

// TestStudySpecRoundTripThroughAudit exercises the JSON → Study → appendix
// path the methodsaudit CLI uses, with a biblio-classified claim attached.
func TestStudySpecRoundTripThroughAudit(t *testing.T) {
	spec := core.StudySpec{
		Title: "Integration Study",
		Stakeholders: []core.StakeholderSpec{
			{ID: "op", Name: "Operator Group", Marginal: true, ConsentRecorded: true},
		},
		Engagements: []core.EngagementSpec{
			{StakeholderID: "op", Phase: "problem-formation", Level: "collaborating"},
		},
		Partnerships: []core.PartnershipSpec{
			{Partner: "Operator Group", Formed: "met at NOG meeting"},
		},
		Conversations: []core.Conversation{
			{With: "op lead", Summary: "peering costs dominate", ConsentToQuote: false},
		},
		Researchers: []core.ResearcherSpec{
			{Name: "R", Attributes: []core.AttributeSpec{
				{Kind: "belief", Value: "decentralization is good", Topics: []string{"peering"}, Disclosed: false},
			}},
		},
		Claims: []positionality.Claim{
			{ID: "c1", Text: "peering should be regulated", Topics: []string{"peering"}},
		},
	}
	study, err := core.BuildStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	check := study.Check()
	if check.PositionalityGaps != 1 {
		t.Errorf("gaps = %d: the undisclosed peering belief should be flagged against the peering claim", check.PositionalityGaps)
	}
	// The claim's method classification: clearly not qualitative text.
	if m := biblio.ClassifyAbstract(spec.Claims[0].Text); m == biblio.Qualitative {
		t.Errorf("claim misclassified as qualitative")
	}
}

// TestPARCoverageFeedsChecklist wires par engagement levels through the
// core checklist.
func TestPARCoverageFeedsChecklist(t *testing.T) {
	study := core.NewStudy("coverage")
	if err := study.PAR.AddStakeholder(par.Stakeholder{ID: "s", ConsentRecorded: true}); err != nil {
		t.Fatal(err)
	}
	for i, ph := range par.Phases() {
		lvl := par.Collaborating
		if i == len(par.Phases())-1 {
			lvl = par.Informed // publication phase falls short
		}
		if err := study.PAR.Engage(par.Engagement{StakeholderID: "s", Phase: ph, Level: lvl}); err != nil {
			t.Fatal(err)
		}
		study.PAR.Reflect(ph, "note")
	}
	if study.Check().ParticipationFull {
		t.Error("informed-only publication phase should break full participation")
	}
	if err := study.PAR.Engage(par.Engagement{StakeholderID: "s", Phase: par.Publication, Level: par.CommunityLed}); err != nil {
		t.Fatal(err)
	}
	if !study.Check().ParticipationFull {
		t.Error("upgrading publication engagement should complete coverage")
	}
}
