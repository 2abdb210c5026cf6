// Package diary implements the diary-study and technology-probe methods the
// paper's §6.1 points to ("analyzing user diaries and technology probes to
// recreate and understand user interactions", ref [7]): participants keep
// self-reported diaries with realistic compliance decay and recall noise,
// instrumented probes log a subset of activity kinds objectively, and a
// reconciliation pass measures how much of the ground-truth experience each
// source — and their combination — recovers.
//
// The package also models prompting strategies: fixed daily prompts versus
// signal-contingent prompts triggered by probe events, the standard
// experience-sampling refinement.
package diary

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Activity is one kind of network experience a participant can have.
type Activity struct {
	Kind string
	// DailyProb is the chance a participant experiences it on a given day.
	DailyProb float64
	// Instrumentable marks whether a technology probe can observe it
	// (outages and app usage are; frustration and workarounds are not).
	Instrumentable bool
	// Salience is the chance the participant remembers to report it in a
	// diary entry they do write.
	Salience float64
}

// DefaultActivities returns the activity mix used by the experiment: a mix
// of probe-visible events and human-only experiences.
func DefaultActivities() []Activity {
	return []Activity{
		{Kind: "video-call-failure", DailyProb: 0.15, Instrumentable: true, Salience: 0.9},
		{Kind: "streaming-buffering", DailyProb: 0.25, Instrumentable: true, Salience: 0.5},
		{Kind: "hotspot-workaround", DailyProb: 0.10, Instrumentable: false, Salience: 0.8},
		{Kind: "gave-up-on-task", DailyProb: 0.12, Instrumentable: false, Salience: 0.7},
		{Kind: "late-night-upload", DailyProb: 0.08, Instrumentable: true, Salience: 0.3},
	}
}

// Prompting selects how participants are reminded to write.
type Prompting int

// Prompting strategies.
const (
	// DailyPrompt reminds everyone every day.
	DailyPrompt Prompting = iota
	// SignalContingent prompts only on days the participant's probe fired,
	// concentrating effort on eventful days.
	SignalContingent
)

// String returns the strategy name.
func (p Prompting) String() string {
	if p == SignalContingent {
		return "signal-contingent"
	}
	return "daily"
}

// Entry is one diary record: the activities the participant reported.
type Entry struct {
	Participant int
	Day         int
	Reported    []string
}

// ProbeEvent is one objective log record.
type ProbeEvent struct {
	Participant int
	Day         int
	Kind        string
}

// Config parameterizes a diary study simulation.
type Config struct {
	Participants int
	Days         int
	Activities   []Activity
	// BaseAdherence is the day-1 probability of writing when prompted.
	BaseAdherence float64
	// AdherenceDecay is the per-day multiplicative compliance decay — the
	// classic diary-study failure mode.
	AdherenceDecay float64
	// PromptBoost multiplies adherence on prompted days under
	// SignalContingent (prompts feel relevant, so compliance is higher).
	PromptBoost float64
	Prompting   Prompting
	Seed        uint64
}

// Dataset is the simulated study output plus its ground truth.
type Dataset struct {
	Entries []Entry
	Probes  []ProbeEvent
	// Truth[(participant,day)] = set of activity kinds experienced.
	Truth map[[2]int]map[string]bool
}

// Simulate runs the study: each day each participant experiences
// activities, probes log the instrumentable ones, and the participant may
// write a diary entry subject to compliance and recall.
func Simulate(cfg Config) (*Dataset, error) {
	if cfg.Participants <= 0 || cfg.Days <= 0 {
		return nil, fmt.Errorf("diary: need participants and days")
	}
	if len(cfg.Activities) == 0 {
		cfg.Activities = DefaultActivities()
	}
	r := rng.New(cfg.Seed)
	ds := &Dataset{Truth: make(map[[2]int]map[string]bool)}
	for p := 0; p < cfg.Participants; p++ {
		adherence := cfg.BaseAdherence
		for d := 0; d < cfg.Days; d++ {
			key := [2]int{p, d}
			experienced := make(map[string]bool)
			probeFired := false
			for _, a := range cfg.Activities {
				if !r.Bool(a.DailyProb) {
					continue
				}
				experienced[a.Kind] = true
				if a.Instrumentable {
					ds.Probes = append(ds.Probes, ProbeEvent{Participant: p, Day: d, Kind: a.Kind})
					probeFired = true
				}
			}
			if len(experienced) > 0 {
				ds.Truth[key] = experienced
			}
			// Write a diary entry?
			prompted := cfg.Prompting == DailyPrompt || (cfg.Prompting == SignalContingent && probeFired)
			if prompted {
				writeProb := adherence
				if cfg.Prompting == SignalContingent {
					writeProb *= cfg.PromptBoost
					if writeProb > 1 {
						writeProb = 1
					}
				}
				if r.Bool(writeProb) {
					var reported []string
					for _, a := range cfg.Activities {
						if experienced[a.Kind] && r.Bool(a.Salience) {
							reported = append(reported, a.Kind)
						}
					}
					sort.Strings(reported)
					ds.Entries = append(ds.Entries, Entry{Participant: p, Day: d, Reported: reported})
				}
			}
			adherence *= cfg.AdherenceDecay
		}
	}
	return ds, nil
}

// Coverage reports what fraction of ground-truth (participant, day,
// activity) triples a source recovered.
type Coverage struct {
	DiaryOnly float64
	ProbeOnly float64
	Combined  float64
	// NonInstrumentable restricts coverage to activities probes cannot
	// see — where diaries are the only instrument.
	NonInstrumentableDiary float64
	// TruthTriples is the ground-truth denominator.
	TruthTriples int
}

// Reconcile computes coverage of the ground truth by diaries, probes, and
// their union — the "recreate and understand user interactions" measure.
func Reconcile(cfg Config, ds *Dataset) Coverage {
	instr := make(map[string]bool, len(cfg.Activities))
	for _, a := range cfg.Activities {
		instr[a.Kind] = a.Instrumentable
	}
	diary := make(map[[2]int]map[string]bool)
	for _, e := range ds.Entries {
		key := [2]int{e.Participant, e.Day}
		m, ok := diary[key]
		if !ok {
			m = make(map[string]bool)
			diary[key] = m
		}
		for _, k := range e.Reported {
			m[k] = true
		}
	}
	probe := make(map[[2]int]map[string]bool)
	for _, e := range ds.Probes {
		key := [2]int{e.Participant, e.Day}
		m, ok := probe[key]
		if !ok {
			m = make(map[string]bool)
			probe[key] = m
		}
		m[e.Kind] = true
	}

	var total, dHit, pHit, cHit float64
	var niTotal, niDiary float64
	for key, kinds := range ds.Truth {
		for k := range kinds {
			total++
			d := diary[key][k]
			p := probe[key][k]
			if d {
				dHit++
			}
			if p {
				pHit++
			}
			if d || p {
				cHit++
			}
			if !instr[k] {
				niTotal++
				if d {
					niDiary++
				}
			}
		}
	}
	cov := Coverage{TruthTriples: int(total)}
	if total > 0 {
		cov.DiaryOnly = dHit / total
		cov.ProbeOnly = pHit / total
		cov.Combined = cHit / total
	}
	if niTotal > 0 {
		cov.NonInstrumentableDiary = niDiary / niTotal
	}
	return cov
}
