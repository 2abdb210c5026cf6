package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestSmoke runs the -classify utility twice via `go run .`, requiring
// deterministic output.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping `go run` smoke test in -short mode")
	}
	cls := string(clitest.RunCLI(t, "-classify", "we conducted semi-structured interviews with operators"))
	if !strings.Contains(cls, "method: qualitative") {
		t.Fatalf("-classify output unexpected: %q", cls)
	}
}

// TestCorpusRoundTrip exercises the -in/-export utility path: export a
// corpus from the graph scenario's generator domain, re-analyze it, and
// require deterministic analysis output.
func TestCorpusRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping `go run` smoke test in -short mode")
	}
	dir := t.TempDir()
	exported := filepath.Join(dir, "corpus.json")
	// First build a corpus file via a scenario-independent path: analyze
	// nothing yet, just generate-and-export is not a mode anymore, so write
	// a corpus through the export of an -in round trip seeded from testdata.
	seedCorpus := filepath.Join("testdata", "corpus.json")
	out := string(clitest.RunCLI(t, "-in", seedCorpus, "-export", exported))
	if !strings.Contains(out, "loaded corpus:") || !strings.Contains(out, "qualitative-share trend:") {
		t.Fatalf("-in analysis output unexpected:\n%s", out)
	}
	again := string(clitest.RunCLI(t, "-in", exported))
	if !strings.Contains(again, "loaded corpus:") {
		t.Fatalf("re-analysis of exported corpus failed:\n%s", again)
	}
}
