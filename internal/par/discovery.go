package par

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Problem is one latent research problem in the synthetic population of
// experiment E4.
type Problem struct {
	ID int
	// Visibility is how strongly the problem shows up in the datasets and
	// vantage points researchers already have (0..1).
	Visibility float64
	// Impact is the problem's true importance to those who live with it.
	Impact float64
	// Marginal marks problems experienced by communities outside the
	// research pipeline (fragile last-mile networks, unstable regulatory
	// environments, ...). In the generator their visibility is suppressed.
	Marginal bool
}

// DiscoveryConfig parameterizes experiment E4.
type DiscoveryConfig struct {
	// Problems is the population size.
	Problems int
	// MarginalFrac is the fraction of problems that are marginal.
	MarginalFrac float64
	// VisibilitySuppression scales marginal problems' visibility down
	// (0.2 means they appear at 20% of their natural visibility).
	VisibilitySuppression float64
	// Select is how many problems each pipeline picks for its agenda.
	Select int
	// Partnerships is how many community partnerships the PAR pipeline
	// forms; each surfaces a share of its community's problems.
	Partnerships int
	// SurfaceProb is the chance an engaged community surfaces any given one
	// of its problems to the researchers.
	SurfaceProb float64
	Seed        uint64
}

// DiscoveryRow compares the two pipelines on one population.
type DiscoveryRow struct {
	Pipeline         string
	MarginalSelected int
	MarginalShare    float64 // marginal fraction of the selected agenda
	MarginalPopShare float64 // marginal fraction of the population
	ImpactCaptured   float64 // summed impact of the agenda / total impact
	MeanAgendaImpact float64
}

// GenerateProblems builds the synthetic problem population. Visibility and
// impact are drawn independently; marginal problems have their visibility
// suppressed, which is the paper's "rendered invisible" mechanism.
func GenerateProblems(cfg DiscoveryConfig, r *rng.Rand) []Problem {
	probs := make([]Problem, cfg.Problems)
	for i := range probs {
		marginal := r.Bool(cfg.MarginalFrac)
		vis := r.Float64()
		if marginal {
			vis *= cfg.VisibilitySuppression
		}
		probs[i] = Problem{
			ID:         i,
			Visibility: vis,
			Impact:     0.2 + 0.8*r.Float64(),
			Marginal:   marginal,
		}
	}
	return probs
}

// DataDrivenAgenda selects the top-k problems by (noisy) visibility — the
// "projects begin with datasets" pipeline.
func DataDrivenAgenda(problems []Problem, k int, r *rng.Rand) []Problem {
	scored := append([]Problem(nil), problems...)
	noise := make([]float64, len(scored))
	for i := range noise {
		noise[i] = 0.05 * r.NormFloat64()
	}
	sort.SliceStable(scored, func(a, b int) bool {
		return scored[a].Visibility+noise[a] > scored[b].Visibility+noise[b]
	})
	if k > len(scored) {
		k = len(scored)
	}
	return scored[:k]
}

// PARAgenda forms partnerships with communities (half of them marginal,
// because PAR deliberately seeks out who is absent), lets each surface its
// problems with SurfaceProb, and selects the top-k surfaced problems by
// impact as articulated by the community.
func PARAgenda(problems []Problem, cfg DiscoveryConfig, r *rng.Rand) []Problem {
	var marginalPool, mainstreamPool []Problem
	for _, p := range problems {
		if p.Marginal {
			marginalPool = append(marginalPool, p)
		} else {
			mainstreamPool = append(mainstreamPool, p)
		}
	}
	// Each partnership adopts one community pool slice; half marginal.
	surfaced := make(map[int]Problem)
	surface := func(pool []Problem, partnerships int) {
		if len(pool) == 0 || partnerships == 0 {
			return
		}
		// Partition the pool into equal community slices; each partnered
		// community surfaces its problems with SurfaceProb.
		per := (len(pool) + partnerships - 1) / partnerships
		for c := 0; c < partnerships; c++ {
			lo := c * per
			hi := lo + per
			if lo >= len(pool) {
				break
			}
			if hi > len(pool) {
				hi = len(pool)
			}
			for _, p := range pool[lo:hi] {
				if r.Bool(cfg.SurfaceProb) {
					surfaced[p.ID] = p
				}
			}
		}
	}
	half := cfg.Partnerships / 2
	surface(marginalPool, cfg.Partnerships-half)
	surface(mainstreamPool, half)

	agenda := make([]Problem, 0, len(surfaced))
	for _, p := range surfaced {
		agenda = append(agenda, p)
	}
	sort.SliceStable(agenda, func(a, b int) bool {
		if agenda[a].Impact != agenda[b].Impact {
			return agenda[a].Impact > agenda[b].Impact
		}
		return agenda[a].ID < agenda[b].ID
	})
	if cfg.Select < len(agenda) {
		agenda = agenda[:cfg.Select]
	}
	return agenda
}

// RunDiscovery executes E4 and returns one row per pipeline
// (data-driven first).
func RunDiscovery(cfg DiscoveryConfig) ([]DiscoveryRow, error) {
	if cfg.Problems <= 0 || cfg.Select <= 0 {
		return nil, fmt.Errorf("par: discovery needs problems and selection size")
	}
	r := rng.New(cfg.Seed)
	problems := GenerateProblems(cfg, r.Split())

	popMarginal := 0
	totalImpact := 0.0
	for _, p := range problems {
		if p.Marginal {
			popMarginal++
		}
		totalImpact += p.Impact
	}
	popShare := float64(popMarginal) / float64(len(problems))

	score := func(name string, agenda []Problem) DiscoveryRow {
		row := DiscoveryRow{Pipeline: name, MarginalPopShare: popShare}
		var impact float64
		for _, p := range agenda {
			if p.Marginal {
				row.MarginalSelected++
			}
			impact += p.Impact
		}
		if len(agenda) > 0 {
			row.MarginalShare = float64(row.MarginalSelected) / float64(len(agenda))
			row.MeanAgendaImpact = impact / float64(len(agenda))
		}
		if totalImpact > 0 {
			row.ImpactCaptured = impact / totalImpact
		}
		return row
	}

	dd := DataDrivenAgenda(problems, cfg.Select, r.Split())
	pa := PARAgenda(problems, cfg, r.Split())
	return []DiscoveryRow{
		score("data-driven", dd),
		score("participatory", pa),
	}, nil
}
