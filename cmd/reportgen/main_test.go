package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/serve"
)

// TestSmoke runs the full report generation twice and requires identical
// output: every experiment behind it is seeded, and the sweep workers
// promise worker-count-independent results.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping `go run` smoke test in -short mode")
	}
	clitest.RunCLI(t, "-workers", "2")
}

// TestCachedRunByteIdentical is the warm-cache acceptance check in-process: a
// cold run through -cache-dir and a warm re-run must render the same bytes,
// and -cache-stats must show the warm run executed no scenarios.
func TestCachedRunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	runOnce := func() (string, string) {
		var out, errOut bytes.Buffer
		if err := run([]string{"-cache-dir", dir, "-cache-stats", "-workers", "2"}, &out, &errOut); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
		}
		return out.String(), errOut.String()
	}
	cold, coldStats := runOnce()
	warm, warmStats := runOnce()
	if cold != warm {
		t.Fatal("warm-cache report differs from cold run")
	}
	if !strings.Contains(coldStats, "cache: 0 hits, 22 misses") {
		t.Fatalf("cold stats = %q, want 22 misses", coldStats)
	}
	if !strings.Contains(warmStats, "cache: 22 hits, 0 misses") {
		t.Fatalf("warm stats = %q, want 22 pure hits", warmStats)
	}
}

// TestOnlyFilterAndJSON exercises the -only and -json surfaces: the filter
// must restrict output to the named scenarios in registry order, and the
// JSON rendering must carry the same IDs.
func TestOnlyFilterAndJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-only", "E7,E3", "-workers", "2"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	md := out.String()
	if !strings.Contains(md, "## E3 — ") || !strings.Contains(md, "## E7 — ") {
		t.Fatalf("-only E7,E3 output missing a requested section:\n%s", md)
	}
	if strings.Contains(md, "## E1 — ") || strings.Contains(md, "## E4 — ") {
		t.Fatal("-only output contains unrequested scenarios")
	}
	if strings.Index(md, "## E3") > strings.Index(md, "## E7") {
		t.Fatal("-only output not in registry order")
	}

	out.Reset()
	if err := run([]string{"-only", "E3", "-json", "-workers", "2"}, &out, &errOut); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	js := out.String()
	if !strings.Contains(js, `"id": "E3"`) || !strings.HasPrefix(js, "[") {
		t.Fatalf("-json output malformed:\n%.300s", js)
	}

	if err := run([]string{"-only", "E999"}, &out, &errOut); err == nil {
		t.Fatal("unknown -only ID accepted")
	}
}

// TestTimelineMode replays the testdata timeline document through -timeline:
// output must carry the per-tick series, be byte-identical at any worker
// count, and render as a single-result JSON array under -json.
func TestTimelineMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-timeline", "testdata/flap.timeline", "-workers", "1"}, &out, &errOut); err != nil {
		t.Fatalf("run -timeline: %v", err)
	}
	md := out.String()
	for _, want := range []string{"## timeline — Timeline replay: flap.timeline", "| tick | events | cells | reachable | reach-share | prefixes |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("-timeline output missing %q:\n%s", want, md)
		}
	}
	if got := strings.Count(md, "\n| "); got < 6 {
		t.Fatalf("expected at least 6 table lines (header + 6 ticks), got %d:\n%s", got, md)
	}

	var out4 bytes.Buffer
	if err := run([]string{"-timeline", "testdata/flap.timeline", "-workers", "4"}, &out4, &errOut); err != nil {
		t.Fatalf("run -timeline -workers 4: %v", err)
	}
	if out4.String() != md {
		t.Fatal("-timeline output differs across worker counts")
	}

	out.Reset()
	if err := run([]string{"-timeline", "testdata/flap.timeline", "-json"}, &out, &errOut); err != nil {
		t.Fatalf("run -timeline -json: %v", err)
	}
	js := out.String()
	if !strings.Contains(js, `"id": "timeline"`) || !strings.HasPrefix(js, "[") {
		t.Fatalf("-timeline -json output malformed:\n%.300s", js)
	}

	if err := run([]string{"-timeline", "testdata/nope.timeline"}, &out, &errOut); err == nil {
		t.Fatal("missing timeline document accepted")
	}
}

// TestListMode checks -list prints every report scenario with its params.
func TestListMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	ls := out.String()
	for _, want := range []string{"E1 — ", "E16 — ", "competitors=<int> (default 6)", "(default seed 42)"} {
		if !strings.Contains(ls, want) {
			t.Fatalf("-list output missing %q:\n%s", want, ls)
		}
	}
}

// TestRunMatchesServe is the cross-path property: reportgen -json -run q
// prints exactly the body humnetd serves for GET /run?q, because both read
// q with the same parser and render the same Result the same way. Rejected
// queries fail on both paths with the same message.
func TestRunMatchesServe(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer srv.Close()
	get := func(q string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/run?" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	for _, q := range []string{
		"id=E7",
		"id=E7&sites=010",
		"id=E8&seed=9",
		"id=E17&mids=3&stubs=6&ticks=6",
	} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-json", "-run", q, "-workers", "2"}, &out, &errOut); err != nil {
			t.Fatalf("-run %q: %v", q, err)
		}
		status, body := get(q)
		if status != http.StatusOK {
			t.Fatalf("/run?%s = %d: %s", q, status, body)
		}
		if !bytes.Equal(out.Bytes(), body) {
			t.Fatalf("-run %q differs from /run body:\n--- reportgen ---\n%s\n--- /run ---\n%s", q, out.Bytes(), body)
		}
		if strings.Contains(q, "sites=010") && !strings.Contains(out.String(), `"sites": "10"`) {
			t.Fatalf("-run %q did not read sites=010 as 10:\n%s", q, out.String())
		}
	}

	for _, q := range []string{"id=E7&seed=0x2a", "id=E7&sites=3&sites=4", "id=NOPE"} {
		var out, errOut bytes.Buffer
		runErr := run([]string{"-json", "-run", q}, &out, &errOut)
		if runErr == nil {
			t.Fatalf("-run %q accepted", q)
		}
		status, body := get(q)
		if status == http.StatusOK {
			t.Fatalf("/run?%s accepted", q)
		}
		var msg struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &msg); err != nil {
			t.Fatalf("/run?%s error body %q: %v", q, body, err)
		}
		if msg.Error != runErr.Error() {
			t.Fatalf("%q rejected differently: reportgen %q, /run %q", q, runErr.Error(), msg.Error)
		}
	}

	var out, errOut bytes.Buffer
	for _, extra := range [][]string{{"-only", "E7"}, {"-timeline", "testdata/flap.timeline"}} {
		if err := run(append([]string{"-run", "id=E7"}, extra...), &out, &errOut); err == nil {
			t.Fatalf("-run accepted together with %v", extra)
		}
	}
}
