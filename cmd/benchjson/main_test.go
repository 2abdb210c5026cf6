package main

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/bgpsim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkConvergeSerial/as100-4         	     100	   1000000 ns/op	  500000 B/op	    1000 allocs/op
BenchmarkDeltaWithdraw/as10k-4          	    2000	     50000 ns/op
BenchmarkReplayFlapStorm-4              	     300	   2000000 ns/op	      5432 cells/event	     98765 events/sec	  250000 B/op	     800 allocs/op
PASS
ok  	repro/internal/bgpsim	2.000s
`

func TestParseBenchOutput(t *testing.T) {
	base, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(base.Benchmarks))
	}
	if base.CPU == "" {
		t.Error("cpu line not captured")
	}
	b := base.Benchmarks[0]
	// The -4 GOMAXPROCS suffix is stripped so baselines match across hosts.
	if b.Name != "BenchmarkConvergeSerial/as100" || b.NsPerOp != 1e6 {
		t.Errorf("first benchmark parsed as %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 500000 || b.AllocsPerOp == nil || *b.AllocsPerOp != 1000 {
		t.Errorf("memory stats parsed as %+v", b)
	}
	if m := base.Benchmarks[1]; m.BytesPerOp != nil || m.AllocsPerOp != nil {
		t.Errorf("benchmark without -benchmem grew memory stats: %+v", m)
	}
	if m := base.Benchmarks[1]; m.Name != "BenchmarkDeltaWithdraw/as10k" {
		t.Errorf("procs suffix not stripped: %q", m.Name)
	}
	// Custom ReportMetric units land between ns/op and B/op in go test output;
	// they must neither be dropped nor shadow the memory stats that follow.
	c := base.Benchmarks[2]
	if c.NsPerOp != 2e6 {
		t.Errorf("ns/op lost around custom metrics: %+v", c)
	}
	if c.Metrics["cells/event"] != 5432 || c.Metrics["events/sec"] != 98765 {
		t.Errorf("custom metrics parsed as %v", c.Metrics)
	}
	if c.BytesPerOp == nil || *c.BytesPerOp != 250000 || c.AllocsPerOp == nil || *c.AllocsPerOp != 800 {
		t.Errorf("memory stats after custom metrics parsed as %+v", c)
	}
}

func mkBaseline(ns map[string]float64) Baseline {
	var base Baseline
	for name, v := range ns {
		base.Benchmarks = append(base.Benchmarks, Benchmark{Name: name, Iterations: 1, NsPerOp: v})
	}
	return base
}

// TestComparePlantedRegression is the gate's own gate: a benchmark planted
// 30% slower must fail a 25% threshold and pass a 50% one.
func TestComparePlantedRegression(t *testing.T) {
	base := mkBaseline(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100})
	cur := mkBaseline(map[string]float64{"BenchmarkA": 130, "BenchmarkB": 90})

	report, regressed := compareBaselines(cur, base, 25)
	if !regressed {
		t.Fatalf("30%% regression not flagged at 25%% threshold; report:\n%s", strings.Join(report, "\n"))
	}
	found := false
	for _, line := range report {
		if strings.HasPrefix(line, "REGRESS") && strings.Contains(line, "BenchmarkA") {
			found = true
		}
		if strings.HasPrefix(line, "REGRESS") && strings.Contains(line, "BenchmarkB") {
			t.Errorf("improvement flagged as regression: %s", line)
		}
	}
	if !found {
		t.Errorf("no REGRESS line for BenchmarkA:\n%s", strings.Join(report, "\n"))
	}

	if _, regressed := compareBaselines(cur, base, 50); regressed {
		t.Error("30% regression flagged at 50% threshold")
	}
}

func TestCompareUnmatchedBenchmarksAreNotFatal(t *testing.T) {
	base := mkBaseline(map[string]float64{"BenchmarkOld": 100, "BenchmarkShared": 100})
	cur := mkBaseline(map[string]float64{"BenchmarkNew": 9e9, "BenchmarkShared": 100})
	report, regressed := compareBaselines(cur, base, 25)
	if regressed {
		t.Fatalf("gate failed on add/retire churn:\n%s", strings.Join(report, "\n"))
	}
	joined := strings.Join(report, "\n")
	for _, want := range []string{"new", "missing", "BenchmarkNew", "BenchmarkOld"} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}
}

// TestParseFoldsRepeats: -count repeats of one benchmark fold into a single
// row of medians with the ns/op spread, in first-seen benchmark order.
func TestParseFoldsRepeats(t *testing.T) {
	const out = `BenchmarkA-4   10   300 ns/op   7 cells/event   1200 B/op   9 allocs/op
BenchmarkB-4   5   50 ns/op
BenchmarkA-4   20   100 ns/op   5 cells/event   1000 B/op   9 allocs/op
BenchmarkA-4   30   200 ns/op   6 cells/event   1100 B/op   9 allocs/op
`
	base, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) != 2 || base.Benchmarks[0].Name != "BenchmarkA" || base.Benchmarks[1].Name != "BenchmarkB" {
		t.Fatalf("folded rows = %+v, want BenchmarkA then BenchmarkB", base.Benchmarks)
	}
	a := base.Benchmarks[0]
	if a.Samples != 3 || a.Iterations != 60 {
		t.Errorf("samples/iterations = %d/%d, want 3/60", a.Samples, a.Iterations)
	}
	if a.NsPerOp != 200 || a.NsMin != 100 || a.NsMax != 300 {
		t.Errorf("ns/op median [min, max] = %g [%g, %g], want 200 [100, 300]", a.NsPerOp, a.NsMin, a.NsMax)
	}
	if a.BytesPerOp == nil || *a.BytesPerOp != 1100 || a.AllocsPerOp == nil || *a.AllocsPerOp != 9 {
		t.Errorf("memory medians = %+v", a)
	}
	if a.Metrics["cells/event"] != 6 {
		t.Errorf("custom metric median = %v, want 6", a.Metrics)
	}
	if b := base.Benchmarks[1]; b.Samples != 1 || b.NsPerOp != 50 || b.NsMin != 50 || b.NsMax != 50 {
		t.Errorf("single-sample row = %+v", b)
	}
}

func withBytes(base Baseline, bytes map[string]int64) Baseline {
	for i := range base.Benchmarks {
		if v, ok := bytes[base.Benchmarks[i].Name]; ok {
			base.Benchmarks[i].BytesPerOp = &v
		}
	}
	return base
}

// TestCompareGatesBytes: B/op is gated at a fixed 10% whatever the ns/op
// threshold, and only where both sides recorded it.
func TestCompareGatesBytes(t *testing.T) {
	base := withBytes(mkBaseline(map[string]float64{"BenchmarkA": 100}), map[string]int64{"BenchmarkA": 1000})
	for _, tc := range []struct {
		bytes   map[string]int64
		regress bool
	}{
		{map[string]int64{"BenchmarkA": 1150}, true},
		{map[string]int64{"BenchmarkA": 1090}, false},
		{map[string]int64{"BenchmarkA": 500}, false},
		{nil, false}, // run without -benchmem: nothing to gate
	} {
		cur := withBytes(mkBaseline(map[string]float64{"BenchmarkA": 100}), tc.bytes)
		report, regressed := compareBaselines(cur, base, 1000)
		if regressed != tc.regress {
			t.Errorf("B/op %v against 1000: regressed = %v, want %v\n%s", tc.bytes, regressed, tc.regress, strings.Join(report, "\n"))
		}
	}
}
