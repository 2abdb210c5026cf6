package par

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// IterateConfig parameterizes experiment E10: iterative co-design with
// partner feedback versus a one-shot design.
type IterateConfig struct {
	// Dimensions is the size of the design space [0,1]^d.
	Dimensions int
	// Iterations is the number of feedback rounds.
	Iterations int
	// StepSize is the fraction of the remaining gap closed per round when
	// feedback on a dimension is correct.
	StepSize float64
	// FeedbackNoise is the probability a partner's per-dimension signal is
	// wrong in a round.
	FeedbackNoise float64
	// InitialError is the researcher's starting per-dimension offset from
	// the community's true need.
	InitialError float64
	Seed         uint64
}

// IterateRow is the design fit after one feedback round.
type IterateRow struct {
	Iteration    int
	IterativeFit float64 // 1 - normalized distance to the true need
	OneShotFit   float64 // the fit of the initial design, constant
}

// RunIteration executes E10. The community's true need is a random point in
// the design space; the researcher starts InitialError away per dimension.
// Each round, partners signal per-dimension direction (wrong with
// FeedbackNoise), and the design moves StepSize of the way. The one-shot
// baseline never updates. Fit is 1 - distance/diagonal, where diagonal is
// the design space's worst-case distance, so a one-shot design retains the
// partial fit its initial understanding earned.
func RunIteration(cfg IterateConfig) ([]IterateRow, error) {
	if cfg.Dimensions <= 0 || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("par: iteration needs dimensions and rounds")
	}
	r := rng.New(cfg.Seed)
	truth := make([]float64, cfg.Dimensions)
	design := make([]float64, cfg.Dimensions)
	for i := range truth {
		truth[i] = r.Float64()
		sign := 1.0
		if r.Bool(0.5) {
			sign = -1
		}
		design[i] = clamp01(truth[i] + sign*cfg.InitialError)
	}
	diagonal := math.Sqrt(float64(cfg.Dimensions))
	fit := func(d []float64) float64 {
		f := 1 - distance(d, truth)/diagonal
		if f < 0 {
			f = 0
		}
		return f
	}
	oneShot := fit(design)

	rows := make([]IterateRow, 0, cfg.Iterations)
	cur := append([]float64(nil), design...)
	for it := 1; it <= cfg.Iterations; it++ {
		for d := 0; d < cfg.Dimensions; d++ {
			gap := truth[d] - cur[d]
			dir := sign(gap)
			if r.Bool(cfg.FeedbackNoise) {
				dir = -dir
			}
			cur[d] = clamp01(cur[d] + dir*cfg.StepSize*math.Abs(gap))
		}
		rows = append(rows, IterateRow{
			Iteration:    it,
			IterativeFit: fit(cur),
			OneShotFit:   oneShot,
		})
	}
	return rows, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func distance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
