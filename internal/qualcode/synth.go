package qualcode

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rng"
)

// SynthConfig controls synthetic transcript generation. Each segment has one
// latent "true" code; its text is drawn from that code's vocabulary plus
// filler, so downstream text analysis can recover the structure.
type SynthConfig struct {
	Docs       int
	SegsPerDoc int
	Speakers   int
	// Vocabulary maps a code ID to its characteristic words. Keys define
	// the set of latent codes.
	Vocabulary map[string][]string
	// Companions optionally pairs a code with one that tends to co-occur
	// (applied together with probability CompanionProb by accurate coders).
	Companions    map[string]string
	CompanionProb float64
}

// DefaultVocabulary returns the method-flavoured vocabulary used by tests
// and the E6 experiment: codes a networking-methods study would plausibly
// develop.
func DefaultVocabulary() map[string][]string {
	return map[string][]string{
		"access":      {"coverage", "afford", "subscribe", "signal", "village", "plan"},
		"maintenance": {"repair", "antenna", "climb", "roof", "replace", "volunteer"},
		"governance":  {"meeting", "vote", "committee", "rule", "decide", "conflict"},
		"billing":     {"payment", "credit", "topup", "invoice", "cost", "subsidy"},
		"performance": {"slow", "latency", "buffer", "outage", "speed", "peak"},
		"trust":       {"privacy", "data", "share", "consent", "worry", "safe"},
	}
}

// Truth records the latent code of every generated segment.
type Truth map[string]map[int]string // doc → segment → code

// Code returns the latent code of a segment ("" when absent).
func (t Truth) Code(doc string, seg int) string { return t[doc][seg] }

// GenerateCorpus builds a project populated with synthetic transcripts and
// returns it with the latent truth. The codebook is built from the
// vocabulary keys (flat hierarchy).
func GenerateCorpus(cfg SynthConfig, r *rng.Rand) (*Project, Truth, error) {
	if cfg.Docs <= 0 || cfg.SegsPerDoc <= 0 {
		return nil, nil, fmt.Errorf("qualcode: synth needs docs and segments, got %d/%d", cfg.Docs, cfg.SegsPerDoc)
	}
	if len(cfg.Vocabulary) == 0 {
		cfg.Vocabulary = DefaultVocabulary()
	}
	if cfg.Speakers <= 0 {
		cfg.Speakers = 6
	}
	cb := NewCodebook()
	codes := make([]string, 0, len(cfg.Vocabulary))
	for id := range cfg.Vocabulary {
		codes = append(codes, id)
	}
	sort.Strings(codes)
	for _, id := range codes {
		if err := cb.Add(Code{ID: id, Name: id, Definition: "synthetic code " + id}); err != nil {
			return nil, nil, err
		}
	}
	p := NewProject(cb)
	truth := make(Truth)

	filler := []string{"well", "you", "know", "really", "think", "maybe", "because", "here"}
	for d := 0; d < cfg.Docs; d++ {
		docID := fmt.Sprintf("doc-%03d", d)
		truth[docID] = make(map[int]string)
		doc := Document{ID: docID, Title: fmt.Sprintf("Interview %d", d)}
		for s := 0; s < cfg.SegsPerDoc; s++ {
			code := codes[r.Intn(len(codes))]
			truth[docID][s] = code
			vocab := cfg.Vocabulary[code]
			words := make([]string, 0, 12)
			for w := 0; w < 12; w++ {
				if r.Bool(0.55) {
					words = append(words, vocab[r.Intn(len(vocab))])
				} else {
					words = append(words, filler[r.Intn(len(filler))])
				}
			}
			doc.Segments = append(doc.Segments, Segment{
				ID:      s,
				Speaker: fmt.Sprintf("S%d", r.Intn(cfg.Speakers)+1),
				Text:    strings.Join(words, " "),
			})
		}
		if err := p.AddDocument(doc); err != nil {
			return nil, nil, err
		}
	}
	return p, truth, nil
}

// SimulatedCoder annotates segments with the latent code at the configured
// accuracy, otherwise with a uniformly random wrong code — the standard
// noisy-rater model used to study inter-rater statistics.
type SimulatedCoder struct {
	Name     string
	Accuracy float64
}

// CodeProject annotates every segment of every document in p. Companion
// codes from cfg are co-applied on correct annotations with
// cfg.CompanionProb.
func (sc SimulatedCoder) CodeProject(p *Project, truth Truth, cfg SynthConfig, r *rng.Rand) error {
	codes := p.Codebook.IDs()
	for _, docID := range p.DocumentIDs() {
		d, _ := p.Document(docID)
		for _, s := range d.Segments {
			trueCode := truth.Code(docID, s.ID)
			applied := trueCode
			if !r.Bool(sc.Accuracy) {
				// Pick a wrong code uniformly.
				for {
					applied = codes[r.Intn(len(codes))]
					if applied != trueCode || len(codes) == 1 {
						break
					}
				}
			}
			if err := p.Annotate(Annotation{DocID: docID, SegmentID: s.ID, CodeID: applied, Coder: sc.Name}); err != nil {
				return err
			}
			if applied == trueCode && cfg.Companions != nil {
				if comp, ok := cfg.Companions[trueCode]; ok && r.Bool(cfg.CompanionProb) {
					if err := p.Annotate(Annotation{DocID: docID, SegmentID: s.ID, CodeID: comp, Coder: sc.Name}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// ReliabilityRow is one iteration of the E6 codebook-refinement experiment.
type ReliabilityRow struct {
	Iteration     int
	CoderAccuracy float64
	MeanKappa     float64
	FleissKappa   float64 // averaged over codes
	KrippAlpha    float64
	Agreement     float64 // mean pairwise percent agreement
}

// ReliabilityCurve runs E6: with each codebook-refinement iteration coder
// accuracy improves (clearer definitions shrink the error rate by gain), and
// every reliability statistic is recomputed on a fresh coding pass. The
// paper's claim is that formalized, iterated coding converges on reliable,
// analyzable data.
func ReliabilityCurve(iterations, coders int, baseAccuracy, gain float64, seed uint64) ([]ReliabilityRow, error) {
	r := rng.New(seed)
	cfg := SynthConfig{Docs: 8, SegsPerDoc: 12}
	var rows []ReliabilityRow
	for it := 0; it < iterations; it++ {
		acc := 1 - (1-baseAccuracy)*pow(1-gain, it)
		p, truth, err := GenerateCorpus(cfg, r.Split())
		if err != nil {
			return nil, err
		}
		coderRNG := r.Split()
		for c := 0; c < coders; c++ {
			sc := SimulatedCoder{Name: fmt.Sprintf("coder%d", c+1), Accuracy: acc}
			if err := sc.CodeProject(p, truth, cfg, coderRNG); err != nil {
				return nil, err
			}
		}
		row := ReliabilityRow{
			Iteration:     it,
			CoderAccuracy: acc,
			MeanKappa:     p.MeanPairwiseKappa(),
			KrippAlpha:    p.KrippendorffAlpha(),
		}
		// Fleiss averaged over codes.
		var fsum float64
		var fcnt int
		for _, code := range p.Codebook.IDs() {
			f := p.FleissKappa(code)
			if !math.IsNaN(f) {
				fsum += f
				fcnt++
			}
		}
		if fcnt > 0 {
			row.FleissKappa = fsum / float64(fcnt)
		}
		cs := p.Coders()
		var asum float64
		var acnt int
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				asum += p.PercentAgreement(cs[i], cs[j])
				acnt++
			}
		}
		if acnt > 0 {
			row.Agreement = asum / float64(acnt)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}
