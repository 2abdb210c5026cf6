// Package measure is the quantitative-trace substrate of the toolkit: it
// generates the network time series (latency, throughput, loss) that
// classical measurement work studies, injects labelled anomalies, and
// detects them with standard detectors (rolling z-score and CUSUM).
//
// Its role in the reproduction is to give the qualitative methods something
// real to triangulate against: the paper argues measurement shows *when*
// something happened while fieldwork explains *what* it was, and
// core.TriangulationReport joins this package's detections with
// internal/ethno field notes.
package measure

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Metric names what a series measures.
type Metric int

// Metrics.
const (
	LatencyMs Metric = iota
	ThroughputMbps
	LossRate
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case LatencyMs:
		return "latency-ms"
	case ThroughputMbps:
		return "throughput-mbps"
	case LossRate:
		return "loss-rate"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Series is a regularly-sampled time series (one sample per day, matching
// the day-granular field notes in internal/ethno).
type Series struct {
	Metric Metric
	Values []float64
}

// Event is a ground-truth disturbance injected into a series.
type Event struct {
	Day      int
	Duration int
	// Magnitude is the shift in the series' units (positive latency/loss
	// spike; negative throughput dip is applied automatically for
	// ThroughputMbps).
	Magnitude float64
	Label     string
}

// GenConfig parameterizes series generation.
type GenConfig struct {
	Metric Metric
	Days   int
	// Base is the series' steady level; Noise the per-day Gaussian sigma.
	Base, Noise float64
	Events      []Event
	Seed        uint64
}

// Generate builds the series with its events applied.
func Generate(cfg GenConfig) (Series, error) {
	if cfg.Days <= 0 {
		return Series{}, fmt.Errorf("measure: need positive days, got %d", cfg.Days)
	}
	r := rng.New(cfg.Seed)
	vals := make([]float64, cfg.Days)
	for d := range vals {
		vals[d] = cfg.Base + cfg.Noise*r.NormFloat64()
	}
	for _, e := range cfg.Events {
		mag := e.Magnitude
		if cfg.Metric == ThroughputMbps {
			mag = -mag
		}
		for d := e.Day; d < e.Day+e.Duration && d < cfg.Days; d++ {
			if d >= 0 {
				vals[d] += mag
			}
		}
	}
	// Loss rates and throughputs cannot go negative.
	if cfg.Metric == LossRate || cfg.Metric == ThroughputMbps {
		for i, v := range vals {
			if v < 0 {
				vals[i] = 0
			}
		}
	}
	return Series{Metric: cfg.Metric, Values: vals}, nil
}

// Detection is one detected anomaly.
type Detection struct {
	Day   int
	Score float64
}

// ZScoreDetect flags days whose value deviates from the trailing-window
// mean by more than threshold standard deviations. The first window days
// cannot alarm. Consecutive alarm days are collapsed to the first.
func ZScoreDetect(s Series, window int, threshold float64) []Detection {
	if window < 2 || len(s.Values) <= window {
		return nil
	}
	var out []Detection
	inAlarm := false
	for d := window; d < len(s.Values); d++ {
		mean, std := meanStd(s.Values[d-window : d])
		if std < 1e-12 {
			std = 1e-12
		}
		z := math.Abs(s.Values[d]-mean) / std
		if z > threshold {
			if !inAlarm {
				out = append(out, Detection{Day: d, Score: z})
			}
			inAlarm = true
		} else {
			inAlarm = false
		}
	}
	return out
}

// CUSUMDetect runs a two-sided CUSUM with reference value k (in sigmas) and
// decision threshold h (in sigmas), using the first window days to estimate
// the in-control mean and sigma. The statistic resets after each alarm.
func CUSUMDetect(s Series, window int, k, h float64) []Detection {
	if window < 2 || len(s.Values) <= window {
		return nil
	}
	mean, std := meanStd(s.Values[:window])
	if std < 1e-12 {
		std = 1e-12
	}
	var out []Detection
	var pos, neg float64
	for d := window; d < len(s.Values); d++ {
		z := (s.Values[d] - mean) / std
		pos = math.Max(0, pos+z-k)
		neg = math.Max(0, neg-z-k)
		if pos > h || neg > h {
			out = append(out, Detection{Day: d, Score: math.Max(pos, neg)})
			pos, neg = 0, 0
		}
	}
	return out
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var s float64
	for _, x := range xs {
		d := x - mean
		s += d * d
	}
	std = math.Sqrt(s / float64(len(xs)))
	return mean, std
}

// Eval scores detections against ground-truth events: a detection matches
// an event if it falls within [Day, Day+Duration+slack]. Returns recall
// (events detected), precision (detections matching some event), and mean
// detection delay in days over detected events.
type Eval struct {
	Recall, Precision, MeanDelay float64
	Detected, Missed             int
	FalseAlarms                  int
}

// Evaluate computes Eval for a detection set.
func Evaluate(events []Event, detections []Detection, slack int) Eval {
	matchedEvent := make([]bool, len(events))
	delays := make([]float64, 0, len(events))
	false_ := 0
	for _, det := range detections {
		matched := false
		for i, e := range events {
			if det.Day >= e.Day && det.Day <= e.Day+e.Duration+slack {
				if !matchedEvent[i] {
					matchedEvent[i] = true
					delays = append(delays, float64(det.Day-e.Day))
				}
				matched = true
				break
			}
		}
		if !matched {
			false_++
		}
	}
	ev := Eval{FalseAlarms: false_}
	for _, m := range matchedEvent {
		if m {
			ev.Detected++
		} else {
			ev.Missed++
		}
	}
	if len(events) > 0 {
		ev.Recall = float64(ev.Detected) / float64(len(events))
	}
	if len(detections) > 0 {
		ev.Precision = float64(len(detections)-false_) / float64(len(detections))
	}
	if len(delays) > 0 {
		s := 0.0
		for _, d := range delays {
			s += d
		}
		ev.MeanDelay = s / float64(len(delays))
	}
	return ev
}
