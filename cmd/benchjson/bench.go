package main

// Benchmark-output parsing and baseline comparison, separated from main so
// the regression gate has unit tests (the gate guards the perf work; a gate
// that silently passes everything would be worse than none).

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// maxBytesRegressPct is the fixed B/op bound of the regression gate.
// Allocation volume is deterministic enough that, unlike ns/op, it needs no
// per-runner tolerance knob.
const maxBytesRegressPct = 10

// Benchmark is one benchmark's result, folded over its -count repeats:
// NsPerOp, BytesPerOp, AllocsPerOp and every custom metric are medians over
// the Samples result lines, NsMin/NsMax bound the ns/op spread, and
// Iterations is the total over all samples. Metrics carries any custom
// per-op units a benchmark reported via b.ReportMetric (e.g. "events/sec",
// "cells/event"), keyed by unit; the three standard units stay first-class.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	Samples     int                `json:"samples,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsMin       float64            `json:"ns_min,omitempty"`
	NsMax       float64            `json:"ns_max,omitempty"`
	BytesPerOp  *int64             `json:"b_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the file layout of BENCH_bgpsim.json.
type Baseline struct {
	Schema     string      `json:"schema"`
	Go         string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

var (
	cpuLine = regexp.MustCompile(`^cpu: (.+)$`)
	// go test suffixes benchmark names with "-<GOMAXPROCS>" on multi-core
	// machines and omits it on single-core ones. Strip it so a baseline
	// recorded on one machine still matches a gate run on another; no
	// benchmark here names its own sub-benchmarks "-<digits>".
	procsSuffix = regexp.MustCompile(`-\d+$`)
)

// parseBenchLine parses one result line as (name, iterations, value-unit
// pairs). Benchmarks that call b.ReportMetric emit their custom units between
// ns/op and B/op, so positional parsing must walk the pairs rather than
// anchor on ns/op coming last — a regex anchored that way silently drops
// B/op and allocs/op the moment a benchmark reports a custom metric.
func parseBenchLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil // e.g. a "BenchmarkX ... FAIL" status line
	}
	bench := Benchmark{Name: procsSuffix.ReplaceAllString(fields[0], ""), Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		value, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			bench.NsPerOp, err = strconv.ParseFloat(value, 64)
			seenNs = true
		case "B/op":
			var v int64
			if v, err = strconv.ParseInt(value, 10, 64); err == nil {
				bench.BytesPerOp = &v
			}
		case "allocs/op":
			var v int64
			if v, err = strconv.ParseInt(value, 10, 64); err == nil {
				bench.AllocsPerOp = &v
			}
		default:
			var v float64
			if v, err = strconv.ParseFloat(value, 64); err == nil {
				if bench.Metrics == nil {
					bench.Metrics = make(map[string]float64)
				}
				bench.Metrics[unit] = v
			}
		}
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad %s value in %q: %v", unit, line, err)
		}
	}
	if !seenNs {
		return Benchmark{}, false, nil
	}
	return bench, true, nil
}

// parseBenchOutput reads `go test -bench` text and collects the results,
// one row per benchmark in first-seen order, with repeats (-count N) folded
// by foldSamples.
func parseBenchOutput(r io.Reader) (Baseline, error) {
	base := Baseline{
		Schema:     "bench-v1",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	samples := make(map[string][]Benchmark)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			base.CPU = m[1]
			continue
		}
		bench, ok, err := parseBenchLine(line)
		if err != nil {
			return base, err
		}
		if ok {
			if samples[bench.Name] == nil {
				base.Benchmarks = append(base.Benchmarks, Benchmark{Name: bench.Name})
			}
			samples[bench.Name] = append(samples[bench.Name], bench)
		}
	}
	if err := sc.Err(); err != nil {
		return base, err
	}
	for i, b := range base.Benchmarks {
		base.Benchmarks[i] = foldSamples(samples[b.Name])
	}
	return base, nil
}

// foldSamples merges the repeated result lines of one benchmark into one
// row: the median of every value, the ns/op range, the sample count, and
// the total iteration count. A memory stat or custom metric missing from
// some samples is the median of the samples that report it.
func foldSamples(ss []Benchmark) Benchmark {
	out := Benchmark{Name: ss[0].Name, Samples: len(ss)}
	var ns, bytes, allocs []float64
	metrics := make(map[string][]float64)
	for _, s := range ss {
		out.Iterations += s.Iterations
		ns = append(ns, s.NsPerOp)
		if s.BytesPerOp != nil {
			bytes = append(bytes, float64(*s.BytesPerOp))
		}
		if s.AllocsPerOp != nil {
			allocs = append(allocs, float64(*s.AllocsPerOp))
		}
		for unit, v := range s.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	out.NsPerOp = median(ns)
	out.NsMin, out.NsMax = ns[0], ns[len(ns)-1] // median sorted ns in place
	if len(bytes) > 0 {
		v := int64(median(bytes))
		out.BytesPerOp = &v
	}
	if len(allocs) > 0 {
		v := int64(median(allocs))
		out.AllocsPerOp = &v
	}
	if len(metrics) > 0 {
		out.Metrics = make(map[string]float64, len(metrics))
		for unit, vs := range metrics {
			out.Metrics[unit] = median(vs)
		}
	}
	return out
}

// median sorts vs in place and returns its median (the mean of the middle
// pair for an even count).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// compareBaselines checks cur against base benchmark-by-benchmark: ns/op
// against maxRegressPct and, where both sides recorded it, B/op against the
// fixed maxBytesRegressPct. It returns a human-readable report (one line
// per matched benchmark, regressions flagged) and whether any matched
// benchmark regressed beyond a bound. Benchmarks present on only one side
// are reported but do not fail the gate: new benchmarks have no baseline yet
// and retired ones no longer matter.
func compareBaselines(cur, base Baseline, maxRegressPct float64) (report []string, regressed bool) {
	baseByName := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}
	matched := make(map[string]bool, len(cur.Benchmarks))
	for _, c := range cur.Benchmarks {
		b, ok := baseByName[c.Name]
		if !ok {
			report = append(report, fmt.Sprintf("new      %-50s %12.0f ns/op (no baseline)", c.Name, c.NsPerOp))
			continue
		}
		matched[c.Name] = true
		if b.NsPerOp <= 0 {
			report = append(report, fmt.Sprintf("skip     %-50s baseline ns/op is %g", c.Name, b.NsPerOp))
			continue
		}
		deltaPct := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		bad := deltaPct > maxRegressPct
		line := fmt.Sprintf("%-50s %12.0f -> %12.0f ns/op (%+.1f%%)", c.Name, b.NsPerOp, c.NsPerOp, deltaPct)
		if b.BytesPerOp != nil && c.BytesPerOp != nil && *b.BytesPerOp > 0 {
			bytesPct := float64(*c.BytesPerOp-*b.BytesPerOp) / float64(*b.BytesPerOp) * 100
			bad = bad || bytesPct > maxBytesRegressPct
			line += fmt.Sprintf("  %12d -> %12d B/op (%+.1f%%)", *b.BytesPerOp, *c.BytesPerOp, bytesPct)
		}
		verdict := "ok"
		if bad {
			verdict = "REGRESS"
			regressed = true
		}
		report = append(report, fmt.Sprintf("%-8s %s", verdict, line))
	}
	for _, b := range base.Benchmarks {
		if !matched[b.Name] {
			report = append(report, fmt.Sprintf("missing  %-50s in baseline only", b.Name))
		}
	}
	return report, regressed
}
