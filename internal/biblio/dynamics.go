package biblio

import (
	"fmt"

	"repro/internal/rng"
)

// CFPConfig parameterizes the field-dynamics model behind the paper's §6.4
// recommendation ("the people setting the calls for papers ... explicitly
// encourage human methods"). Researchers choose methods partly by intrinsic
// affinity and partly by conforming to what they see getting accepted;
// venues accept qualitative work at a discount. The model shows how a small
// acceptance bias plus conformity locks a field into a method monoculture,
// and what a CFP change does — and how slowly.
type CFPConfig struct {
	// Researchers is the population size.
	Researchers int
	// Years simulated.
	Years int
	// Conformity is the weight researchers give to the venue's observed
	// accepted mix over their own affinity when choosing a method (0..1).
	Conformity float64
	// QualWeight is the venue's acceptance multiplier for qualitative
	// submissions (1 = method-blind; <1 = implicit discount).
	QualWeight float64
	// BaseAccept is the acceptance probability of a method-favoured paper.
	BaseAccept float64
	// InterventionYear, when >= 0, switches QualWeight to 1 from that year
	// on (the CFP change). -1 disables.
	InterventionYear int
	Seed             uint64
}

// CFPYear is one simulated year's outcome.
type CFPYear struct {
	Year int
	// SubmittedQualShare and AcceptedQualShare track the method mix at the
	// two pipeline stages.
	SubmittedQualShare float64
	AcceptedQualShare  float64
	QualWeightInEffect float64
}

// RunCFP simulates the submission/acceptance loop. Researchers' affinities
// are uniform on [0,1]; the first year's perceived accepted share equals the
// mean affinity (no history yet).
func RunCFP(cfg CFPConfig) ([]CFPYear, error) {
	if cfg.Researchers <= 0 || cfg.Years <= 0 {
		return nil, fmt.Errorf("biblio: CFP config incomplete")
	}
	r := rng.New(cfg.Seed)
	affinity := make([]float64, cfg.Researchers)
	for i := range affinity {
		affinity[i] = r.Float64()
	}
	perceived := 0.5 // initial belief about what gets accepted
	rows := make([]CFPYear, 0, cfg.Years)
	for year := 0; year < cfg.Years; year++ {
		w := cfg.QualWeight
		if cfg.InterventionYear >= 0 && year >= cfg.InterventionYear {
			w = 1
		}
		var submittedQual, acceptedQual, accepted float64
		for i := range affinity {
			pQual := (1-cfg.Conformity)*affinity[i] + cfg.Conformity*perceived
			isQual := r.Bool(pQual)
			if isQual {
				submittedQual++
			}
			acceptProb := cfg.BaseAccept
			if isQual {
				acceptProb *= w
			}
			if r.Bool(acceptProb) {
				accepted++
				if isQual {
					acceptedQual++
				}
			}
		}
		row := CFPYear{
			Year:               year,
			SubmittedQualShare: submittedQual / float64(cfg.Researchers),
			QualWeightInEffect: w,
		}
		if accepted > 0 {
			row.AcceptedQualShare = acceptedQual / accepted
			// Researchers update their belief from what they saw published.
			perceived = row.AcceptedQualShare
		}
		rows = append(rows, row)
	}
	return rows, nil
}
