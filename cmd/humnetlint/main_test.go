package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// seedModule writes a throwaway module whose single package carries one
// rangemap violation (or none, when clean is true).
func seedModule(t *testing.T, clean bool) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module seeded\n\ngo 1.22\n")
	body := `package sim

// Keys leaks map iteration order into the returned slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	if clean {
		body = `package sim

import "sort"

// Keys returns the map's keys in sorted order.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`
	}
	writeFile(t, filepath.Join(dir, "internal", "sim", "sim.go"), body)
	return dir
}

func TestSeededViolationExitsNonzero(t *testing.T) {
	dir := seedModule(t, false)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "rangemap") {
		t.Errorf("stdout does not mention the rangemap rule:\n%s", &stdout)
	}
	if !strings.Contains(stdout.String(), "internal/sim/sim.go:7:") {
		t.Errorf("stdout does not carry a module-relative file:line position:\n%s", &stdout)
	}
}

func TestSeededViolationJSON(t *testing.T) {
	dir := seedModule(t, false)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, &stderr)
	}
	var res struct {
		Findings []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		} `json:"findings"`
		Suppressed int `json:"suppressed"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, &stdout)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if f.Rule != "rangemap" || f.File != "internal/sim/sim.go" || f.Line != 7 {
		t.Errorf("finding = %+v, want rangemap at internal/sim/sim.go:7", f)
	}
}

func TestCleanModuleExitsZero(t *testing.T) {
	dir := seedModule(t, true)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", &stdout)
	}
}

func TestUnknownRuleExitsTwo(t *testing.T) {
	dir := seedModule(t, true)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-rules", "nosuchrule"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestRuleSubsetSkipsOtherFindings(t *testing.T) {
	dir := seedModule(t, false)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-rules", "errdrop"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (the seeded violation is rangemap, not errdrop)\nstdout: %s", code, &stdout)
	}
}

// seedFixableModule writes a throwaway module with one fixable aliasret
// violation (exported method returning an unexported slice field) and one
// fixable ctxflow violation (literal Background passed on while ctx is in
// scope).
func seedFixableModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module seeded\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "sim", "sim.go"), `package sim

import "context"

type store struct {
	items []int
}

func (s *store) Items() []int {
	return s.items
}

func waitCtx(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

func Wait(ctx context.Context) error {
	return waitCtx(context.Background())
}
`)
	return dir
}

func TestFixAppliesAndIsIdempotent(t *testing.T) {
	dir := seedFixableModule(t)
	src := filepath.Join(dir, "internal", "sim", "sim.go")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-fix"}, &stdout, &stderr); code != 0 {
		t.Fatalf("first -fix: exit = %d, want 0 (all seeded findings are fixable)\nstdout: %s\nstderr: %s",
			code, &stdout, &stderr)
	}
	fixed, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "append(s.items[:0:0], s.items...)") {
		t.Errorf("aliasret fix not applied:\n%s", fixed)
	}
	if !strings.Contains(string(fixed), "waitCtx(ctx)") {
		t.Errorf("ctxflow fix not applied:\n%s", fixed)
	}

	// The fixed module is clean.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("post-fix lint: exit = %d, want 0\nstdout: %s", code, &stdout)
	}

	// A second -fix run edits nothing.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-fix"}, &stdout, &stderr); code != 0 {
		t.Fatalf("second -fix: exit = %d, want 0\nstderr: %s", code, &stderr)
	}
	refixed, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, refixed) {
		t.Errorf("-fix is not idempotent:\n--- first ---\n%s\n--- second ---\n%s", fixed, refixed)
	}
}

func TestTestsFlagRevealsTestOnlyAccess(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module seeded\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "sim", "sim.go"), `package sim

import "sync/atomic"

var hits int64

func CountHit() {
	atomic.AddInt64(&hits, 1)
}
`)
	writeFile(t, filepath.Join(dir, "internal", "sim", "sim_test.go"), `package sim

func assertHits(want int64) bool {
	return hits == want
}
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("without -tests: exit = %d, want 0 (the racy access lives in a test file)\nstdout: %s", code, &stdout)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-tests"}, &stdout, &stderr); code != 1 {
		t.Fatalf("with -tests: exit = %d, want 1\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "atomicmix") {
		t.Errorf("finding does not mention atomicmix:\n%s", &stdout)
	}
}
