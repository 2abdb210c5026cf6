// Package standards models the research-to-practice pipeline the paper's §2
// holds up as the Internet's own action-research history: drafts move
// through an IETF-like open process (individual draft → working-group
// adoption → RFC → operator deployment), and practitioner participation in
// the working group is what aligns a design with operator needs before it
// ships. The closed, consortium-style counterfactual ("the closed, rigid,
// and monopolistic 2G cellular world") standardizes without that feedback.
//
// The E11 experiment sweeps the practitioner share of working-group seats
// and measures time-to-RFC and eventual deployment breadth.
package standards

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// State is a draft's position in the pipeline.
type State int

// Draft states.
const (
	Individual State = iota
	WGAdopted
	RFC
	Abandoned
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Individual:
		return "individual"
	case WGAdopted:
		return "wg-adopted"
	case RFC:
		return "rfc"
	case Abandoned:
		return "abandoned"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Draft is one proposed protocol or mechanism.
type Draft struct {
	ID int
	// Quality is the intrinsic technical merit (0..1), fixed at birth.
	Quality float64
	// Fit is how well the current revision matches operator needs (0..1).
	// Open-process revisions with practitioners in the room raise it.
	Fit float64
	// TrueNeedFit is the fit a fully practitioner-informed revision would
	// reach — the ceiling revisions approach.
	TrueNeedFit float64

	State State
	// AdoptedRound / RFCRound record transitions (-1 if not reached).
	AdoptedRound, RFCRound int
	// Champions counts practitioners who reviewed it (they later drive
	// deployment).
	Champions int
}

// Config parameterizes a process run.
type Config struct {
	Drafts int
	// Rounds is the number of working-group cycles simulated.
	Rounds int
	// Seats is the working group's per-round review capacity (drafts
	// reviewed per round).
	Seats int
	// PractitionerShare is the fraction of seats held by operators (the
	// swept variable of E11).
	PractitionerShare float64
	// Closed switches to the consortium counterfactual: drafts skip open
	// review (fit never improves), standardize quickly, and deploy only
	// within the consortium's operator share.
	Closed bool
	// ConsortiumShare is the fraction of operators inside a closed
	// consortium.
	ConsortiumShare float64
	// Operators is the deployment population size.
	Operators int
	// PatienceRounds is how long an individual draft survives without
	// adoption before abandonment.
	PatienceRounds int
	Seed           uint64
}

// Result summarizes one process run.
type Result struct {
	RFCs            int
	Abandoned       int
	MeanRoundsToRFC float64
	MeanFinalFit    float64 // over RFCs
	// DeploymentShare is the fraction of operators running at least one of
	// the produced RFCs after the deployment phase.
	DeploymentShare float64
	// MeanDeploymentPerRFC is the mean per-RFC operator adoption share.
	MeanDeploymentPerRFC float64
}

// Run simulates the process and the subsequent deployment phase.
func Run(cfg Config) (Result, error) {
	if cfg.Drafts <= 0 || cfg.Rounds <= 0 || cfg.Operators <= 0 {
		return Result{}, fmt.Errorf("standards: config incomplete")
	}
	r := rng.New(cfg.Seed)
	drafts := make([]*Draft, cfg.Drafts)
	for i := range drafts {
		q := 0.3 + 0.7*r.Float64()
		initialFit := 0.15 + 0.25*r.Float64()
		drafts[i] = &Draft{
			ID: i, Quality: q,
			Fit: initialFit, TrueNeedFit: 0.7 + 0.3*r.Float64(),
			State: Individual, AdoptedRound: -1, RFCRound: -1,
		}
	}

	if cfg.Closed {
		// Consortium: standardize by quality rank, no revision loop.
		ranked := append([]*Draft(nil), drafts...)
		sort.Slice(ranked, func(a, b int) bool { return ranked[a].Quality > ranked[b].Quality })
		produce := cfg.Rounds * cfg.Seats / 4
		for i, d := range ranked {
			if i < produce {
				d.State = RFC
				// No revision loop: the consortium ratifies at full seat
				// capacity from the first round.
				d.RFCRound = 1 + i/max(cfg.Seats, 1)
			} else {
				d.State = Abandoned
			}
		}
	} else {
		for round := 0; round < cfg.Rounds; round++ {
			// Review queue: adopted drafts first (they are closest to RFC),
			// then individuals by quality.
			queue := make([]*Draft, 0, len(drafts))
			for _, d := range drafts {
				if d.State == WGAdopted {
					queue = append(queue, d)
				}
			}
			var individuals []*Draft
			for _, d := range drafts {
				if d.State == Individual {
					individuals = append(individuals, d)
				}
			}
			sort.Slice(individuals, func(a, b int) bool {
				return individuals[a].Quality > individuals[b].Quality
			})
			queue = append(queue, individuals...)

			seats := cfg.Seats
			for _, d := range queue {
				if seats == 0 {
					break
				}
				seats--
				practitionerReview := r.Bool(cfg.PractitionerShare)
				if practitionerReview {
					// Operators in the room pull the design toward real
					// needs — the action-research mechanism.
					d.Fit += 0.35 * (d.TrueNeedFit - d.Fit)
					d.Champions++
				}
				switch d.State {
				case Individual:
					if r.Bool(d.Quality * 0.5) {
						d.State = WGAdopted
						d.AdoptedRound = round
					}
				case WGAdopted:
					// RFC once quality and fit are both credible.
					if r.Bool(d.Quality * d.Fit) {
						d.State = RFC
						d.RFCRound = round
					}
				}
			}
			// Abandonment of stale individual drafts.
			for _, d := range drafts {
				if d.State == Individual && round >= cfg.PatienceRounds && r.Bool(0.15) {
					d.State = Abandoned
				}
			}
		}
		for _, d := range drafts {
			if d.State != RFC {
				d.State = Abandoned
			}
		}
	}

	// Deployment phase: each operator considers each RFC once; adoption
	// probability is the RFC's fit, boosted by champions, and — in the
	// closed world — gated to consortium members.
	deployedAny := make([]bool, cfg.Operators)
	var res Result
	var roundsSum, fitSum, deploySum float64
	for _, d := range drafts {
		switch d.State {
		case RFC:
			res.RFCs++
			roundsSum += float64(d.RFCRound + 1)
			fitSum += d.Fit
			adopters := 0
			for op := 0; op < cfg.Operators; op++ {
				if cfg.Closed && float64(op) >= cfg.ConsortiumShare*float64(cfg.Operators) {
					continue
				}
				p := d.Fit * (1 + 0.1*float64(min(d.Champions, 5)))
				if p > 1 {
					p = 1
				}
				if r.Bool(p) {
					adopters++
					deployedAny[op] = true
				}
			}
			deploySum += float64(adopters) / float64(cfg.Operators)
		case Abandoned:
			res.Abandoned++
		}
	}
	if res.RFCs > 0 {
		res.MeanRoundsToRFC = roundsSum / float64(res.RFCs)
		res.MeanFinalFit = fitSum / float64(res.RFCs)
		res.MeanDeploymentPerRFC = deploySum / float64(res.RFCs)
	}
	n := 0
	for _, d := range deployedAny {
		if d {
			n++
		}
	}
	res.DeploymentShare = float64(n) / float64(cfg.Operators)
	return res, nil
}

// E11Row is one point of the practitioner-share sweep.
type E11Row struct {
	PractitionerShare float64
	Closed            bool
	RFCs              int
	MeanRoundsToRFC   float64
	MeanFinalFit      float64
	// DeploymentShare is the fraction of operators running any RFC; it
	// saturates quickly when many RFCs ship, so MeanDeployPerRFC is the
	// discriminative per-standard adoption measure.
	DeploymentShare  float64
	MeanDeployPerRFC float64
}

// Sweep runs E11: the open process across practitioner shares, plus the
// closed consortium counterfactual as the final row.
func Sweep(shares []float64, base Config) ([]E11Row, error) {
	rows := make([]E11Row, 0, len(shares)+1)
	for _, s := range shares {
		cfg := base
		cfg.PractitionerShare = s
		cfg.Closed = false
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E11Row{
			PractitionerShare: s,
			RFCs:              res.RFCs,
			MeanRoundsToRFC:   res.MeanRoundsToRFC,
			MeanFinalFit:      res.MeanFinalFit,
			DeploymentShare:   res.DeploymentShare,
			MeanDeployPerRFC:  res.MeanDeploymentPerRFC,
		})
	}
	closed := base
	closed.Closed = true
	res, err := Run(closed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, E11Row{
		Closed:           true,
		RFCs:             res.RFCs,
		MeanRoundsToRFC:  res.MeanRoundsToRFC,
		MeanFinalFit:     res.MeanFinalFit,
		DeploymentShare:  res.DeploymentShare,
		MeanDeployPerRFC: res.MeanDeploymentPerRFC,
	})
	return rows, nil
}
