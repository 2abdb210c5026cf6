package survey

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Design names a sampling design.
type Design string

// The designs compared by E8.
const (
	DesignRandom     Design = "random"
	DesignStratified Design = "stratified"
	DesignSnowball   Design = "snowball"
)

// SampleResult is the outcome of fielding one design.
type SampleResult struct {
	Design      Design
	Contacted   int
	Respondents []int // person IDs who responded
}

// RandomSample contacts n frame members uniformly at random; each responds
// with their cold-contact probability.
func RandomSample(pop *Population, n int, r *rng.Rand) SampleResult {
	frame := pop.Frame()
	if n > len(frame) {
		n = len(frame)
	}
	res := SampleResult{Design: DesignRandom}
	for _, idx := range r.SampleWithoutReplacement(len(frame), n) {
		id := frame[idx]
		res.Contacted++
		if r.Bool(pop.People[id].ColdResponseProb) {
			res.Respondents = append(res.Respondents, id)
		}
	}
	return res
}

// StratifiedSample contacts an equal number of frame members per stratum
// (as available). Cold-contact response probabilities still apply — the
// design fixes allocation, not response.
func StratifiedSample(pop *Population, perStratum int, r *rng.Rand) SampleResult {
	res := SampleResult{Design: DesignStratified}
	for _, s := range pop.Strata() {
		var frame []int
		for _, id := range pop.strata[s] {
			if pop.People[id].InFrame {
				frame = append(frame, id)
			}
		}
		n := perStratum
		if n > len(frame) {
			n = len(frame)
		}
		for _, idx := range r.SampleWithoutReplacement(len(frame), n) {
			id := frame[idx]
			res.Contacted++
			if r.Bool(pop.People[id].ColdResponseProb) {
				res.Respondents = append(res.Respondents, id)
			}
		}
	}
	return res
}

// Snowball starts from seed respondents in the frame and follows social
// referrals for the given number of waves. Referred contacts respond with
// their (higher) referred-response probability; each respondent refers up to
// maxReferrals of their contacts. The budget caps total contacts.
func Snowball(pop *Population, seeds, waves, maxReferrals, budget int, r *rng.Rand) SampleResult {
	res := SampleResult{Design: DesignSnowball}
	contacted := make(map[int]bool)
	var current []int

	frame := pop.Frame()
	if seeds > len(frame) {
		seeds = len(frame)
	}
	for _, idx := range r.SampleWithoutReplacement(len(frame), seeds) {
		id := frame[idx]
		if contacted[id] || res.Contacted >= budget {
			continue
		}
		contacted[id] = true
		res.Contacted++
		if r.Bool(pop.People[id].ColdResponseProb) {
			res.Respondents = append(res.Respondents, id)
			current = append(current, id)
		}
	}
	for w := 0; w < waves && res.Contacted < budget; w++ {
		var next []int
		for _, id := range current {
			refs := 0
			for _, c := range pop.People[id].Contacts {
				if refs >= maxReferrals || res.Contacted >= budget {
					break
				}
				if contacted[c] {
					continue
				}
				contacted[c] = true
				res.Contacted++
				refs++
				if r.Bool(pop.People[c].ReferredResponseProb) {
					res.Respondents = append(res.Respondents, c)
					next = append(next, c)
				}
			}
		}
		current = next
	}
	sort.Ints(res.Respondents)
	return res
}

// EstimateMean returns the respondents' mean measured score (TrueScore plus
// response noise drawn with r). NaN with no respondents.
func EstimateMean(pop *Population, respondents []int, noise float64, r *rng.Rand) float64 {
	if len(respondents) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, id := range respondents {
		v := pop.People[id].TrueScore + noise*r.NormFloat64()
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		s += v
	}
	return s / float64(len(respondents))
}

// E8Row summarizes one design in the sampling experiment.
type E8Row struct {
	Design        Design
	Contacted     int
	Respondents   int
	ResponseRate  float64
	MarginalShare float64 // respondents from hard-to-reach strata
	MarginalPop   float64 // their population share
	Estimate      float64 // estimated population mean attitude
	TrueMean      float64
	Bias          float64 // Estimate - TrueMean
}

// E8Config parameterizes the sampling experiment.
type E8Config struct {
	Strata        []StratumSpec
	TiesPerPerson int
	// Budget is the contact budget shared by every design.
	Budget int
	// MarginalStrata names the hard-to-reach strata for reporting.
	MarginalStrata []string
	Waves          int
	Seeds          int
	MaxReferrals   int
	ResponseNoise  float64
	Seed           uint64
}

// RunE8 fields the three designs on one synthetic population and returns a
// row per design in the order random, stratified, snowball.
func RunE8(cfg E8Config) ([]E8Row, error) {
	if len(cfg.Strata) == 0 || cfg.Budget <= 0 {
		return nil, fmt.Errorf("survey: E8 config incomplete")
	}
	if cfg.Seeds < 0 {
		return nil, fmt.Errorf("survey: E8 needs seeds >= 0, got %d", cfg.Seeds)
	}
	r := rng.New(cfg.Seed)
	pop := SynthPopulation(cfg.Strata, cfg.TiesPerPerson, r.Split())
	trueMean := pop.TrueMean()

	marginal := make(map[string]bool, len(cfg.MarginalStrata))
	for _, s := range cfg.MarginalStrata {
		marginal[s] = true
	}
	marginalPop := 0.0
	for _, p := range pop.People {
		if marginal[p.Stratum] {
			marginalPop++
		}
	}
	marginalPop /= float64(len(pop.People))

	perStratum := cfg.Budget / len(pop.Strata())
	results := []SampleResult{
		RandomSample(pop, cfg.Budget, r.Split()),
		StratifiedSample(pop, perStratum, r.Split()),
		Snowball(pop, cfg.Seeds, cfg.Waves, cfg.MaxReferrals, cfg.Budget, r.Split()),
	}
	rows := make([]E8Row, 0, len(results))
	estRNG := r.Split()
	for _, res := range results {
		row := E8Row{
			Design:      res.Design,
			Contacted:   res.Contacted,
			Respondents: len(res.Respondents),
			MarginalPop: marginalPop,
			TrueMean:    trueMean,
		}
		if res.Contacted > 0 {
			row.ResponseRate = float64(len(res.Respondents)) / float64(res.Contacted)
		}
		m := 0.0
		for _, id := range res.Respondents {
			if marginal[pop.People[id].Stratum] {
				m++
			}
		}
		if len(res.Respondents) > 0 {
			row.MarginalShare = m / float64(len(res.Respondents))
		}
		row.Estimate = EstimateMean(pop, res.Respondents, cfg.ResponseNoise, estRNG)
		row.Bias = row.Estimate - trueMean
		rows = append(rows, row)
	}
	return rows, nil
}
