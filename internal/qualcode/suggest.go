package qualcode

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/textproc"
)

// Suggester is a multinomial naive-Bayes model trained on a coder's
// existing annotations that proposes codes for new segments — the
// "computational grounded theory" assistant pattern: the machine suggests,
// the human decides. It never annotates on its own.
type Suggester struct {
	codes []string
	// logPrior[c] and logLik[c][term] in natural log; unseen terms fall
	// back to the Laplace-smoothed floor per code.
	logPrior map[string]float64
	logLik   map[string]map[string]float64
	floor    map[string]float64
	vocab    map[string]bool
}

// TrainSuggester fits the model on every segment the given coder annotated
// (a segment contributes once per code applied, using its primary code
// only for multinomial simplicity). Returns an error if the coder has no
// annotations.
func TrainSuggester(p *Project, coder string) (*Suggester, error) {
	type doc struct {
		code   string
		tokens []string
	}
	var docs []doc
	for _, docID := range p.DocumentIDs() {
		d, _ := p.Document(docID)
		for _, seg := range d.Segments {
			codes := p.CodesFor(docID, seg.ID, coder)
			if len(codes) == 0 {
				continue
			}
			docs = append(docs, doc{
				code:   codes[0],
				tokens: textproc.StemAll(textproc.TokenizeFiltered(seg.Text)),
			})
		}
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("qualcode: coder %q has no annotations to learn from", coder)
	}

	s := &Suggester{
		logPrior: make(map[string]float64),
		logLik:   make(map[string]map[string]float64),
		floor:    make(map[string]float64),
		vocab:    make(map[string]bool),
	}
	counts := make(map[string]map[string]float64) // code → term → count
	totals := make(map[string]float64)            // code → token count
	classN := make(map[string]float64)
	for _, d := range docs {
		if counts[d.code] == nil {
			counts[d.code] = make(map[string]float64)
		}
		classN[d.code]++
		for _, t := range d.tokens {
			counts[d.code][t]++
			totals[d.code]++
			s.vocab[t] = true
		}
	}
	v := float64(len(s.vocab))
	n := float64(len(docs))
	for code, cn := range classN {
		s.codes = append(s.codes, code)
		s.logPrior[code] = math.Log(cn / n)
		s.logLik[code] = make(map[string]float64, len(counts[code]))
		denom := totals[code] + v
		for term, c := range counts[code] {
			s.logLik[code][term] = math.Log((c + 1) / denom)
		}
		s.floor[code] = math.Log(1 / denom)
	}
	sort.Strings(s.codes)
	return s, nil
}

// Suggestion is one scored code proposal.
type Suggestion struct {
	CodeID string
	// Confidence is the posterior probability among the trained codes.
	Confidence float64
}

// Suggest scores the text against every trained code and returns the top-k
// proposals by posterior, ties broken by code ID.
func (s *Suggester) Suggest(text string, k int) []Suggestion {
	tokens := textproc.StemAll(textproc.TokenizeFiltered(text))
	logs := make([]float64, len(s.codes))
	for i, code := range s.codes {
		lp := s.logPrior[code]
		for _, t := range tokens {
			if !s.vocab[t] {
				continue // out-of-vocabulary tokens carry no signal
			}
			if l, ok := s.logLik[code][t]; ok {
				lp += l
			} else {
				lp += s.floor[code]
			}
		}
		logs[i] = lp
	}
	// Softmax for calibrated-ish confidences.
	maxLog := math.Inf(-1)
	for _, l := range logs {
		if l > maxLog {
			maxLog = l
		}
	}
	var z float64
	exps := make([]float64, len(logs))
	for i, l := range logs {
		exps[i] = math.Exp(l - maxLog)
		z += exps[i]
	}
	out := make([]Suggestion, len(s.codes))
	for i, code := range s.codes {
		out[i] = Suggestion{CodeID: code, Confidence: exps[i] / z}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Confidence != out[b].Confidence {
			return out[a].Confidence > out[b].Confidence
		}
		return out[a].CodeID < out[b].CodeID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
