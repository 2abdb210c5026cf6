package ethno

import (
	"fmt"
	"math"
)

// Strategy names the fieldwork scheduling strategies compared by E7.
type Strategy string

// The strategies of experiment E7.
const (
	StrategyContinuous Strategy = "continuous"
	StrategyPatchwork  Strategy = "patchwork"
	StrategyRapid      Strategy = "rapid"
)

// E7Row is one strategy's outcome under a fixed researcher-day budget.
type E7Row struct {
	Strategy       Strategy
	Visits         int
	BudgetDays     float64
	Insight        float64
	SitesCovered   int
	Reflections    int
	TravelOverhead float64 // travel days / budget
}

// E7Config parameterizes the patchwork experiment.
type E7Config struct {
	// Sites is the number of comparable field sites available.
	Sites int
	// BudgetDays is the researcher-day budget each strategy gets.
	BudgetDays float64
	// PatchworkVisits is the visit count of the patchwork plan.
	PatchworkVisits int
	// RapidVisits is the visit count of the rapid plan.
	RapidVisits int
	Params      AccrualParams
}

// buildStudy creates cfg.Sites identical sites so strategy differences are
// attributable to scheduling alone.
func buildStudy(cfg E7Config) (*Study, error) {
	s := NewStudy()
	for i := 0; i < cfg.Sites; i++ {
		if err := s.AddSite(Site{
			ID:         fmt.Sprintf("site-%d", i),
			MaxInsight: 100,
			Tau:        25,
			TravelDays: 2,
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// RunE7 simulates the three strategies on identical sites under the same
// budget and returns one row per strategy, in the order continuous,
// patchwork, rapid.
func RunE7(cfg E7Config) ([]E7Row, error) {
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("ethno: E7 needs sites >= 1, got %d", cfg.Sites)
	}
	study, err := buildStudy(cfg)
	if err != nil {
		return nil, err
	}
	ids := study.SiteIDs()

	plans := []struct {
		strategy Strategy
		plan     Schedule
	}{
		{StrategyContinuous, continuousPlan(ids[0], cfg.BudgetDays)},
		{StrategyPatchwork, roundRobinPlan(ids, cfg.BudgetDays, cfg.PatchworkVisits)},
		{StrategyRapid, roundRobinPlan(ids, cfg.BudgetDays, cfg.RapidVisits)},
	}
	rows := make([]E7Row, 0, len(plans))
	for _, p := range plans {
		res, err := study.Simulate(p.plan, cfg.Params)
		if err != nil {
			return nil, err
		}
		row := E7Row{
			Strategy:     p.strategy,
			Visits:       len(p.plan),
			BudgetDays:   cfg.BudgetDays,
			Insight:      res.Insight,
			SitesCovered: res.SitesCovered,
			Reflections:  res.Reflections,
		}
		if cfg.BudgetDays > 0 {
			row.TravelOverhead = res.TravelDays / cfg.BudgetDays
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// continuousPlan spends the whole budget in one stay at a single site.
func continuousPlan(siteID string, budget float64) Schedule {
	return Schedule{{SiteID: siteID, Days: budget}}
}

// roundRobinPlan splits the budget into visits spread round-robin across
// sites.
func roundRobinPlan(siteIDs []string, budget float64, visits int) Schedule {
	if visits < 1 {
		visits = 1
	}
	per := budget / float64(visits)
	plan := make(Schedule, 0, visits)
	for v := 0; v < visits; v++ {
		plan = append(plan, Visit{SiteID: siteIDs[v%len(siteIDs)], Days: per})
	}
	return plan
}

// Anomaly is one event in a quantitative trace that wants an explanation.
type Anomaly struct {
	Day   float64
	Label string
}

// TriangulationResult reports how well field notes explain a trace.
type TriangulationResult struct {
	Anomalies int
	Explained int
	// Matches maps anomaly index to the indices of notes within the window.
	Matches map[int][]int
}

// ExplainedShare returns Explained/Anomalies (0 when no anomalies).
func (t TriangulationResult) ExplainedShare() float64 {
	if t.Anomalies == 0 {
		return 0
	}
	return float64(t.Explained) / float64(t.Anomalies)
}

// Triangulate matches each anomaly against field notes taken within
// windowDays of it (any site). This is the mixed-methods join the paper
// argues for: traces tell you when something happened; field notes tell you
// what it was.
func Triangulate(notes []FieldNote, anomalies []Anomaly, windowDays float64) TriangulationResult {
	res := TriangulationResult{
		Anomalies: len(anomalies),
		Matches:   make(map[int][]int),
	}
	for ai, a := range anomalies {
		for ni, n := range notes {
			if math.Abs(n.Day-a.Day) <= windowDays {
				res.Matches[ai] = append(res.Matches[ai], ni)
			}
		}
		if len(res.Matches[ai]) > 0 {
			res.Explained++
		}
	}
	return res
}
