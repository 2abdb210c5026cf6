package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bgpsim"
)

// tinySize shrinks every workload so the whole set runs in seconds while
// taking the same code paths and output checks.
var tinySize = sizes{
	hot:          serveShape{lruSize: 4096, variants: 1, zipf: 1.1, rate: 300},
	disk:         serveShape{lruSize: 4, variants: 2, rate: 200},
	miss:         serveShape{lruSize: 4096, rate: 80},
	layerSamples: 20,
	converge:     bgpsim.HierarchyOpts{NMid: 20, NStub: 100},
	storm: stormShape{topo: bgpsim.HierarchyOpts{NMid: 8, NStub: 30}, ticks: 10, perTick: 2, hold: 2,
		members: 8, failProb: 0.1, repairAfter: 2, surge: 2, reachBelow: 0.99},
	graphPapers: 120, graphAuthors: 60,
	setupRuns: 2, refProbes: 1,
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func tinyEnv(t *testing.T, traced bool) *env {
	e := &env{seed: 3, nproc: runtime.GOMAXPROCS(0), root: "..", work: t.TempDir(), size: tinySize}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// TestSpecMatchesWorkloads: BENCHMARK.json and the workload table agree,
// and every name is valid.
func TestSpecMatchesWorkloads(t *testing.T) {
	sp := testSpec(t)
	var declared, built []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(built, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark builds %v", declared, built)
	}
	for _, bad := range []string{"", "a b", "x/y", "-lead", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	dup := *sp
	dup.PerLayer = append(append([]specMetric(nil), sp.PerLayer...), specMetric{Name: "p50_ms", Unit: "ms", Better: "lower"})
	if dup.validate() == nil {
		t.Error("a metric name used twice was accepted")
	}
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and traced:
// its output checks must pass, every end-to-end metric must be present and
// non-zero, and across the traced runs every per-layer metric must be
// measured by some workload.
func TestWorkloadsSmoke(t *testing.T) {
	sp := testSpec(t)
	measured := make(map[string]bool)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := tinyEnv(t, traced)
			m, err := runWorkload(context.Background(), w, e, 200*time.Millisecond)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d ops failed", w.name, traced, m.failed, m.attempted)
			}
			var out bytes.Buffer
			if err := emit(&out, sp, m, traced); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if !res.Correct || len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): correct=%v with %d metrics, want %d", w.name, traced, res.Correct, len(res.Metrics), len(want))
			}
			for _, metric := range want {
				v, ok := res.Metrics[metric.Name]
				switch {
				case !ok || v.Unit != metric.Unit:
					t.Errorf("%s: metric %s missing or with unit %q", w.name, metric.Name, v.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, metric.Name, v.Value)
				}
				if _, ok := m.values[metric.Name]; ok && traced {
					measured[metric.Name] = true
				}
			}
		}
	}
	for _, metric := range sp.PerLayer {
		if !measured[metric.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", metric.Name)
		}
	}
}

// TestTraceDeterministic: two traced runs with the same seed record the
// same spans (names, nesting and count) for their first traced op.
func TestTraceDeterministic(t *testing.T) {
	w, err := findWorkload(testSpec(t), "replay")
	if err != nil {
		t.Fatal(err)
	}
	shape := func() string {
		e := tinyEnv(t, true)
		if _, err := runWorkload(context.Background(), w, e, 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		spans := e.tr.snapshot()
		first := spans[0].Op
		names := make(map[int64]string)
		for _, s := range spans {
			first = min(first, s.Op)
			names[s.ID] = s.Name
		}
		var out []string
		for _, s := range spans {
			if s.Op == first {
				out = append(out, fmt.Sprintf("%s<%s", s.Name, names[s.Parent]))
			}
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	a, b := shape(), shape()
	if a == "" || a != b {
		t.Errorf("trace shape differs between runs with one seed:\n%s\n---\n%s", a, b)
	}
}
