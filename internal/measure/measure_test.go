package measure

import (
	"math"
	"testing"
	"testing/quick"
)

func genLatency(t *testing.T, events []Event) Series {
	t.Helper()
	s, err := Generate(GenConfig{
		Metric: LatencyMs, Days: 200, Base: 40, Noise: 2,
		Events: events, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Days: 0}); err == nil {
		t.Error("zero days accepted")
	}
}

func TestGenerateBaseline(t *testing.T) {
	s := genLatency(t, nil)
	if len(s.Values) != 200 {
		t.Fatalf("len = %d", len(s.Values))
	}
	mean, std := meanStd(s.Values)
	if math.Abs(mean-40) > 1 {
		t.Errorf("mean = %g, want ~40", mean)
	}
	if std > 4 {
		t.Errorf("std = %g, want ~2", std)
	}
}

func TestGenerateEventShift(t *testing.T) {
	s := genLatency(t, []Event{{Day: 100, Duration: 5, Magnitude: 50, Label: "spike"}})
	if s.Values[102] < 70 {
		t.Errorf("event day value %g not elevated", s.Values[102])
	}
	if s.Values[50] > 60 {
		t.Errorf("non-event day value %g elevated", s.Values[50])
	}
}

func TestThroughputDipsAndFloors(t *testing.T) {
	s, err := Generate(GenConfig{
		Metric: ThroughputMbps, Days: 50, Base: 10, Noise: 1,
		Events: []Event{{Day: 20, Duration: 3, Magnitude: 100, Label: "outage"}},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Values[21] != 0 {
		t.Errorf("outage throughput = %g, want floored at 0", s.Values[21])
	}
	if s.Values[5] < 5 {
		t.Errorf("baseline throughput = %g", s.Values[5])
	}
}

func TestZScoreDetectsInjectedEvents(t *testing.T) {
	events := []Event{
		{Day: 60, Duration: 4, Magnitude: 30, Label: "a"},
		{Day: 140, Duration: 4, Magnitude: 30, Label: "b"},
	}
	s := genLatency(t, events)
	det := ZScoreDetect(s, 14, 4)
	ev := Evaluate(events, det, 2)
	if ev.Recall < 1 {
		t.Errorf("recall = %g, detections %v", ev.Recall, det)
	}
	if ev.Precision < 0.5 {
		t.Errorf("precision = %g (false alarms %d)", ev.Precision, ev.FalseAlarms)
	}
}

func TestZScoreQuietSeriesNoAlarms(t *testing.T) {
	s := genLatency(t, nil)
	det := ZScoreDetect(s, 14, 6)
	if len(det) > 1 {
		t.Errorf("quiet series raised %d alarms", len(det))
	}
}

func TestZScoreDegenerateInputs(t *testing.T) {
	if ZScoreDetect(Series{Values: []float64{1, 2}}, 14, 3) != nil {
		t.Error("short series should detect nothing")
	}
	if ZScoreDetect(Series{Values: make([]float64, 100)}, 1, 3) != nil {
		t.Error("window < 2 should detect nothing")
	}
}

func TestCUSUMDetectsSlowDrift(t *testing.T) {
	// A small sustained shift that a 4-sigma z-test misses but CUSUM
	// accumulates.
	events := []Event{{Day: 100, Duration: 60, Magnitude: 3, Label: "drift"}}
	s := genLatency(t, events)
	z := ZScoreDetect(s, 14, 4)
	zEval := Evaluate(events, z, 2)
	c := CUSUMDetect(s, 50, 0.5, 5)
	cEval := Evaluate(events, c, 2)
	if cEval.Recall < 1 {
		t.Errorf("CUSUM missed the drift: %+v", cEval)
	}
	if zEval.Recall >= cEval.Recall && len(z) > 0 && zEval.MeanDelay <= cEval.MeanDelay {
		// Not a hard failure shape, but CUSUM should not be strictly worse.
		t.Logf("note: z-score matched CUSUM on drift (z=%+v, c=%+v)", zEval, cEval)
	}
}

func TestEvaluateCounts(t *testing.T) {
	events := []Event{{Day: 10, Duration: 2}, {Day: 50, Duration: 2}}
	det := []Detection{{Day: 11}, {Day: 30}, {Day: 12}}
	ev := Evaluate(events, det, 0)
	if ev.Detected != 1 || ev.Missed != 1 {
		t.Errorf("eval = %+v", ev)
	}
	if ev.FalseAlarms != 1 {
		t.Errorf("false alarms = %d (day-12 should match the already-matched event)", ev.FalseAlarms)
	}
	if ev.Recall != 0.5 {
		t.Errorf("recall = %g", ev.Recall)
	}
}

func TestMetricString(t *testing.T) {
	if LatencyMs.String() != "latency-ms" || LossRate.String() != "loss-rate" {
		t.Error("metric strings wrong")
	}
}

func TestQuickGenerateLength(t *testing.T) {
	f := func(seed uint16, days uint8) bool {
		d := int(days%100) + 1
		s, err := Generate(GenConfig{Metric: LatencyMs, Days: d, Base: 10, Noise: 1, Seed: uint64(seed)})
		return err == nil && len(s.Values) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkZScoreDetect(b *testing.B) {
	s, err := Generate(GenConfig{Metric: LatencyMs, Days: 2000, Base: 40, Noise: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ZScoreDetect(s, 14, 4)
	}
}
