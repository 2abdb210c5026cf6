package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// startDaemon serves an in-memory humnetd (LRU and coalescing, no disk
// cache) on a loopback port and returns its host:port.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv := serve.New(serve.Config{LRUSize: 64, MaxInFlight: 2, MaxQueue: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestRunRepeatDigestsMatch(t *testing.T) {
	addr := startDaemon(t)
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout strings.Builder
	args := []string{"-addr", addr, "-n", "40", "-variants", "2", "-workers", "4",
		"-repeat", "2", "-scenarios", "E7", "-expect-single-exec", "-out", outPath}
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "verified: byte-identical digests across repeats") {
		t.Errorf("stdout lacks the verification line:\n%s", stdout.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Reps) != 2 {
		t.Fatalf("report has %d repeats, want 2", len(report.Reps))
	}
	if report.Reps[0].Digest == "" || report.Reps[0].Digest != report.Reps[1].Digest {
		t.Errorf("repeat digests differ: %q vs %q", report.Reps[0].Digest, report.Reps[1].Digest)
	}
	if report.Metrics.Executed > int64(report.Distinct) {
		t.Errorf("daemon executed %d runs for %d distinct triples", report.Metrics.Executed, report.Distinct)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	addr := startDaemon(t)
	cases := map[string][]string{
		"missing -addr":    {"-n", "1"},
		"-repeat 0":        {"-addr", addr, "-n", "1", "-repeat", "0"},
		"unknown scenario": {"-addr", addr, "-n", "1", "-scenarios", "E7,NOPE"},
	}
	for name, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run(%q) succeeded, want an error", name, args)
		}
	}
}

func TestPercentileSmallInputs(t *testing.T) {
	cases := []struct {
		sorted []int64
		q      int
		want   int64
	}{
		{[]int64{7}, 0, 7},
		{[]int64{7}, 50, 7},
		{[]int64{7}, 99, 7},
		{[]int64{3, 9}, 0, 3},
		{[]int64{3, 9}, 50, 3},
		{[]int64{3, 9}, 99, 9},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("percentile(%v, %d) = %d, want %d", c.sorted, c.q, got, c.want)
		}
	}
}
