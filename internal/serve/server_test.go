package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/rng"
)

// testDef is a cheap deterministic scenario for server tests; its table is a
// pure function of (params, seed).
func testDef(id string) experiment.Def {
	return experiment.Def{
		ID:    id,
		Title: "synthetic " + id,
		Claim: "serve test scenario",
		Seed:  7,
		Params: experiment.Schema{
			{Name: "rows", Kind: experiment.Int, Default: 3, Doc: "table rows"},
			{Name: "label", Kind: experiment.String, Default: "x", Doc: "row label"},
		},
		Run: func(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
			res := &experiment.Result{}
			tb := res.AddTable(id, "synthetic", "label", "value")
			r := rng.New(seed)
			for i := 0; i < p.Int("rows"); i++ {
				tb.AddRow(fmt.Sprintf("%s%d", p.String("label"), i), experiment.F3(r.Float64()))
			}
			return res, nil
		},
	}
}

// newTestServer builds a Server over a fresh registry holding T1 and T2,
// with any config overrides applied by mod.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	reg := experiment.NewRegistry()
	for _, id := range []string{"T1", "T2"} {
		if err := reg.Register(testDef(id)); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := experiment.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Registry: reg, Cache: cache, LRUSize: 64}
	if mod != nil {
		mod(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// get fetches path and returns (status, body).
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestRunServesDeterministicBodyAcrossTiers(t *testing.T) {
	dir := t.TempDir()
	cache, err := experiment.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, func(c *Config) { c.Cache = cache })

	status, first := get(t, ts, "/run?id=T1&seed=9&rows=4")
	if status != http.StatusOK {
		t.Fatalf("first /run status = %d, body %s", status, first)
	}
	// Same triple in a different query spelling: LRU hit, identical body.
	status, second := get(t, ts, "/run?rows=4&seed=9&id=T1&label=x")
	if status != http.StatusOK || string(second) != string(first) {
		t.Fatalf("re-request differs: status %d\nfirst:  %s\nsecond: %s", status, first, second)
	}
	m := srv.Metrics()
	if m.Executed != 1 || m.LRUHits != 1 {
		t.Fatalf("metrics = %+v, want 1 executed / 1 LRU hit", m)
	}

	// Fresh server over the same disk cache: disk hit, identical body.
	srv2 := New(Config{Registry: srv.reg, Cache: srv.cfg.Cache, LRUSize: 64})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	status, third := get(t, ts2, "/run?id=T1&seed=9&rows=4")
	if status != http.StatusOK || string(third) != string(first) {
		t.Fatalf("disk-cache body differs: status %d body %s", status, third)
	}
	if m := srv2.Metrics(); m.DiskHits != 1 || m.Executed != 0 || m.DiskCorrupt != 0 {
		t.Fatalf("fresh-server metrics = %+v, want a pure disk hit", m)
	}

	// Corrupt the entry: a third server re-executes, serves the same body,
	// and counts the unusable entry in disk_corrupt.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one cache entry, got %v (err %v)", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv3 := New(Config{Registry: srv.reg, Cache: cache, LRUSize: 64})
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	status, fourth := get(t, ts3, "/run?id=T1&seed=9&rows=4")
	if status != http.StatusOK || string(fourth) != string(first) {
		t.Fatalf("body after corrupt entry differs: status %d body %s", status, fourth)
	}
	if m := srv3.Metrics(); m.DiskCorrupt != 1 || m.DiskHits != 0 || m.Executed != 1 {
		t.Fatalf("corrupt-entry metrics = %+v, want 1 disk_corrupt / 1 executed", m)
	}

	// The body decodes as a single result object with the right identity.
	var decoded struct {
		ID   string `json:"id"`
		Seed uint64 `json:"seed"`
	}
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatalf("response is not a JSON object: %v\n%s", err, first)
	}
	if decoded.ID != "T1" || decoded.Seed != 9 {
		t.Fatalf("response identity = %+v, want T1 seed 9", decoded)
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	cases := []struct {
		path string
		want int
	}{
		{"/run", http.StatusBadRequest},                                 // no id
		{"/run?id=NOPE", http.StatusNotFound},                           // unknown scenario
		{"/run?id=T1&seed=abc", http.StatusBadRequest},                  // bad seed
		{"/run?id=T1&rows=many", http.StatusBadRequest},                 // mistyped param
		{"/run?id=T1&bogus=1", http.StatusBadRequest},                   // unknown param
		{"/run?id=T1&rows=1&rows=2", http.StatusBadRequest},             // repeated param
		{"/run?id=T1&id=T2", http.StatusBadRequest},                     // repeated id
		{"/run?id=T1&seed=1&seed=2", http.StatusBadRequest},             // repeated seed
		{"/run?id=T1&seed=18446744073709551616", http.StatusBadRequest}, // uint64 overflow
	}
	for _, c := range cases {
		status, body := get(t, ts, c.path)
		if status != c.want {
			t.Errorf("GET %s = %d, want %d (body %s)", c.path, status, c.want, body)
		}
	}
	m := srv.Metrics()
	if m.NotFound != 1 || m.BadRequest != 8 {
		t.Fatalf("metrics = %+v, want 1 not-found / 8 bad-request", m)
	}
	if m.Executed != 0 {
		t.Fatal("a rejected request executed a scenario")
	}
}

// TestRunBadParamAnswers400: a param value the scenario cannot use is the
// client's error whether ParseJob rejects it against the declared range or
// the run rejects it with ErrBadParam. Both answer 400 with a message that
// names the param and count in bad_request, never in failed or shed.
func TestRunBadParamAnswers400(t *testing.T) {
	reg := experiment.NewRegistry()
	d := testDef("B")
	d.Params[0].Min, d.Params[0].Max = experiment.Bound(0), experiment.Bound(10)
	run := d.Run
	d.Run = func(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
		if p.String("label") == "" {
			return nil, fmt.Errorf("%w %q: empty", experiment.ErrBadParam, "label")
		}
		return run(ctx, p, seed)
	}
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg, LRUSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct{ query, param string }{
		{"id=B&rows=11", `"rows" = 11, want in [0, 10]`},
		{"id=B&rows=-1", `"rows" = -1, want in [0, 10]`},
		{"id=B&label=", `"label": empty`},
	} {
		status, body := get(t, ts, "/run?"+c.query)
		var msg struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &msg); err != nil || status != http.StatusBadRequest || !strings.Contains(msg.Error, c.param) {
			t.Errorf("/run?%s = %d %s, want 400 naming %s", c.query, status, body, c.param)
		}
	}
	if status, body := get(t, ts, "/run?id=B&rows=10"); status != http.StatusOK {
		t.Fatalf("/run at the bound = %d %s", status, body)
	}
	m := srv.Metrics()
	if m.BadRequest != 3 || m.Failed != 0 || m.ShedQueue != 0 || m.ShedWait != 0 {
		t.Fatalf("metrics = %+v, want 3 bad-request, 0 failed or shed", m)
	}

	_, body := get(t, ts, "/list")
	var scenarios []ListScenario
	if err := json.Unmarshal(body, &scenarios); err != nil {
		t.Fatal(err)
	}
	rows, label := scenarios[0].Params[0], scenarios[0].Params[1]
	if rows.Min == nil || *rows.Min != 0 || rows.Max == nil || *rows.Max != 10 || label.Min != nil || label.Max != nil {
		t.Fatalf("/list params = %+v, want rows in [0, 10] and label unbounded", scenarios[0].Params)
	}
	if !strings.Contains(string(body), `"min": 0`) || strings.Count(string(body), `"min"`) != 1 {
		t.Fatalf("/list does not carry exactly rows' min:\n%s", body)
	}
}

func TestListHealthzMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)

	status, body := get(t, ts, "/list")
	if status != http.StatusOK {
		t.Fatalf("/list status = %d", status)
	}
	var scenarios []ListScenario
	if err := json.Unmarshal(body, &scenarios); err != nil {
		t.Fatalf("/list is not JSON: %v", err)
	}
	if len(scenarios) != 2 || scenarios[0].ID != "T1" || scenarios[1].ID != "T2" {
		t.Fatalf("/list = %+v, want T1,T2 in registry order", scenarios)
	}
	if len(scenarios[0].Params) != 2 || scenarios[0].Params[0].Name != "rows" {
		t.Fatalf("/list params = %+v, want schema order", scenarios[0].Params)
	}

	status, body = get(t, ts, "/healthz")
	if status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", status, body)
	}

	status, body = get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	if snap.Requests < 3 {
		t.Fatalf("metrics snapshot = %+v, want >= 3 requests counted", snap)
	}
	if len(snap.LatencyHist) != len(latencyBucketsUS)+1 {
		t.Fatalf("latency histogram has %d buckets, want %d", len(snap.LatencyHist), len(latencyBucketsUS)+1)
	}
}

// TestRunPanickingScenarioAnswers500: a scenario that panics answers 500 and
// counts as failed on every request, instead of dropping the connection and
// leaving its coalescing key held so the next identical request hangs. The
// body names the scenario and the panic value but carries no goroutine
// stack: a client must not see the server's internals.
func TestRunPanickingScenarioAnswers500(t *testing.T) {
	reg := experiment.NewRegistry()
	d := testDef("P")
	d.Run = func(context.Context, experiment.Values, uint64) (*experiment.Result, error) {
		panic("scenario blew up")
	}
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg, LRUSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		status, body := get(t, ts, "/run?id=P")
		if status != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, status)
		}
		if !strings.Contains(string(body), "scenario P panicked: scenario blew up") {
			t.Errorf("request %d: body %s does not name the scenario and panic value", i, body)
		}
		if strings.Contains(string(body), "goroutine") {
			t.Errorf("request %d: body carries a stack: %s", i, body)
		}
	}
	if m := srv.Metrics(); m.Failed != 2 {
		t.Fatalf("failed = %d, want 2", m.Failed)
	}
}

// waiters reports how many requests are parked on another request's fill.
func (s *Server) waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting
}

// TestRunNeverReexecutesAKey replays waves of requests over a few keys from
// concurrent clients. Every request either hits the LRU, waits on the
// key's fill, or executes it, so each key executes exactly once however the
// requests interleave with a fill's completion.
func TestRunNeverReexecutesAKey(t *testing.T) {
	const keys, clients, perClient = 3, 8, 60
	reg := experiment.NewRegistry()
	var execs atomic.Int64
	d := testDef("T1")
	inner := d.Run
	d.Run = func(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
		execs.Add(1)
		return inner(ctx, p, seed)
	}
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg, LRUSize: 8, MaxInFlight: clients, MaxQueue: clients})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/run?id=T1&seed=%d", ts.URL, (c+i)%keys))
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d request %d: status %d", c, i, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := execs.Load(); n != keys {
		t.Fatalf("scenario executed %d times for %d keys", n, keys)
	}
	if m := srv.Metrics(); m.Executed != keys || m.RunOK != clients*perClient {
		t.Fatalf("metrics = %+v, want %d executed / %d ok", m, keys, clients*perClient)
	}
}

// blockingDef returns a scenario that parks in Run until release closes,
// signalling each entry on entered.
func blockingDef(id string, entered chan<- struct{}, release <-chan struct{}) experiment.Def {
	d := testDef(id)
	inner := d.Run
	d.Run = func(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
		entered <- struct{}{}
		<-release
		return inner(ctx, p, seed)
	}
	return d
}

func TestRunCoalescesConcurrentIdenticalRequests(t *testing.T) {
	const followers = 6
	entered := make(chan struct{}, 1)
	release := make(chan struct{})

	reg := experiment.NewRegistry()
	var execs atomic.Int64
	d := blockingDef("T1", entered, release)
	inner := d.Run
	d.Run = func(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
		execs.Add(1)
		return inner(ctx, p, seed)
	}
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg, LRUSize: 8, MaxInFlight: followers + 1, MaxQueue: followers + 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make([][]byte, followers+1)
	statuses := make([]int, followers+1)
	var wg sync.WaitGroup
	fetch := func(i int) {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/run?id=T1")
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return
		}
		statuses[i] = resp.StatusCode
		bodies[i], _ = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
	}
	wg.Add(1)
	go fetch(0)
	<-entered // leader is inside Run

	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go fetch(i)
	}
	// Followers park on the leader's fill; release once they are all
	// there. Bounded yield loop instead of a wall-clock deadline — the
	// wildrand rule keeps time.Now out of internal packages.
	for i := 0; srv.waiters() < followers; i++ {
		if i > 500_000_000 {
			t.Fatalf("only %d followers joined the flight", srv.waiters())
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d status = %d (%s)", i, st, bodies[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d body differs from leader", i)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("scenario executed %d times under %d concurrent identical requests, want 1", n, followers+1)
	}
	if m := srv.Metrics(); m.Executed != 1 || m.Coalesced != followers {
		t.Fatalf("metrics = %+v, want 1 executed / %d coalesced", m, followers)
	}
}

func TestRunShedsWhenSaturated(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	reg := experiment.NewRegistry()
	if err := reg.Register(blockingDef("T1", entered, release)); err != nil {
		t.Fatal(err)
	}
	// One slot, no queue: a second distinct request sheds 429 immediately.
	srv := New(Config{Registry: reg, LRUSize: 0, MaxInFlight: 1, MaxQueue: -1, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/run?id=T1&seed=1")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}()
	<-entered // occupant holds the only slot

	resp, err := http.Get(ts.URL + "/run?id=T1&seed=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request status = %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want %q", ra, "3")
	}
	close(release)
	<-done
	if m := srv.Metrics(); m.ShedQueue != 1 {
		t.Fatalf("metrics = %+v, want 1 queue-full shed", m)
	}
}

func TestRunShedsOnQueueTimeout(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	reg := experiment.NewRegistry()
	if err := reg.Register(blockingDef("T1", entered, release)); err != nil {
		t.Fatal(err)
	}
	// One slot, one queue seat, tiny wait deadline: the queued request
	// times out with 503 while the occupant blocks.
	srv := New(Config{Registry: reg, LRUSize: 0, MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/run?id=T1&seed=1")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}()
	<-entered

	resp, err := http.Get(ts.URL + "/run?id=T1&seed=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	close(release)
	<-done
	if m := srv.Metrics(); m.ShedWait != 1 {
		t.Fatalf("metrics = %+v, want 1 wait-timeout shed", m)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := newLRU(2, 0)
	l.add("a", []byte("A"))
	l.add("b", []byte("B"))
	if _, ok := l.get("a"); !ok {
		t.Fatal("a missing before capacity exceeded")
	}
	l.add("c", []byte("C")) // evicts b (a was just touched)
	if _, ok := l.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := l.get("a"); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	if _, ok := l.get("c"); !ok {
		t.Fatal("c missing after insert")
	}
	if l.len() != 2 {
		t.Fatalf("len = %d, want 2", l.len())
	}

	disabled := newLRU(0, 0)
	disabled.add("a", []byte("A"))
	if _, ok := disabled.get("a"); ok || disabled.len() != 0 {
		t.Fatal("disabled LRU stored an entry")
	}
}

func TestLRUByteBound(t *testing.T) {
	l := newLRU(100, 10)
	l.add("a", []byte("aaaa")) // 4 bytes
	l.add("b", []byte("bbbb")) // 8 bytes total
	if l.len() != 2 || l.size() != 8 {
		t.Fatalf("len/size = %d/%d, want 2/8", l.len(), l.size())
	}

	// A third small body pushes the total past 10: the oldest entry goes,
	// even though the entry bound (100) is nowhere near exceeded.
	l.add("c", []byte("cccc"))
	if _, ok := l.get("a"); ok {
		t.Fatal("a survived a byte-bound eviction")
	}
	if l.len() != 2 || l.size() != 8 {
		t.Fatalf("after byte eviction len/size = %d/%d, want 2/8", l.len(), l.size())
	}

	// A body larger than the whole budget is never admitted — caching it
	// would flush every other entry and still leave the cache over budget.
	l.add("huge", []byte("0123456789ABCDEF"))
	if _, ok := l.get("huge"); ok {
		t.Fatal("over-budget body was cached")
	}
	if _, ok := l.get("b"); !ok {
		t.Fatal("resident entry flushed by a rejected over-budget body")
	}

	// Refreshing an entry with a bigger body re-accounts its bytes and
	// evicts colder entries as needed.
	l.get("c") // promote c; b is now coldest
	l.add("c", []byte("cccccccc"))
	if _, ok := l.get("b"); ok {
		t.Fatal("b survived a refresh that exceeded the byte budget")
	}
	if l.len() != 1 || l.size() != 8 {
		t.Fatalf("after refresh len/size = %d/%d, want 1/8", l.len(), l.size())
	}
}

// temporalDef mimics a timeline scenario: a multi-table time-series Result
// whose rendered body grows with the tick count — the response shape that
// made an entry-counted LRU balloon past its intended footprint.
func temporalDef(id string) experiment.Def {
	return experiment.Def{
		ID:    id,
		Title: "synthetic temporal " + id,
		Claim: "serve test time series",
		Seed:  7,
		Params: experiment.Schema{
			{Name: "ticks", Kind: experiment.Int, Default: 256, Doc: "time-series rows"},
		},
		Run: func(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
			res := &experiment.Result{}
			tb := res.AddTable(id, "per-tick series", "tick", "value", "share")
			r := rng.New(seed)
			for i := 0; i < p.Int("ticks"); i++ {
				tb.AddRow(experiment.I(i), experiment.F3(r.Float64()), experiment.F3(r.Float64()))
			}
			sum := res.AddTable(id+"-totals", "series totals", "ticks")
			sum.AddRow(experiment.I(p.Int("ticks")))
			return res, nil
		},
	}
}

func TestRunLargeTemporalResponseRespectsByteBudget(t *testing.T) {
	reg := experiment.NewRegistry()
	if err := reg.Register(temporalDef("TS")); err != nil {
		t.Fatal(err)
	}
	cache, err := experiment.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg, Cache: cache, LRUSize: 64, LRUBytes: 4 << 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The 256-tick response is far over the 4 KiB budget: it must be served
	// intact (twice, byte-identically via the disk cache) while the LRU stays
	// empty — before byte bounding, one of these pinned the whole cache.
	status, big := get(t, ts, "/run?id=TS&ticks=256")
	if status != http.StatusOK {
		t.Fatalf("large /run status = %d", status)
	}
	if len(big) <= 4<<10 {
		t.Fatalf("test response only %d bytes; grow ticks so it exceeds the budget", len(big))
	}
	status, again := get(t, ts, "/run?id=TS&ticks=256")
	if status != http.StatusOK || string(again) != string(big) {
		t.Fatalf("repeat of uncached response differs: status %d", status)
	}
	m := srv.Metrics()
	if m.LRUSize != 0 || m.LRUBytes != 0 {
		t.Fatalf("over-budget response entered the LRU: size %d, bytes %d", m.LRUSize, m.LRUBytes)
	}
	if m.LRUHits != 0 || m.DiskHits != 1 || m.Executed != 1 {
		t.Fatalf("metrics = %+v, want 0 LRU hits / 1 disk hit / 1 execution", m)
	}

	// A short series fits: it is cached, counted in lru_bytes, and the next
	// request is a pure LRU hit.
	status, small := get(t, ts, "/run?id=TS&ticks=4")
	if status != http.StatusOK {
		t.Fatalf("small /run status = %d", status)
	}
	if status, rep := get(t, ts, "/run?id=TS&ticks=4"); status != http.StatusOK || string(rep) != string(small) {
		t.Fatalf("cached small response differs: status %d", status)
	}
	m = srv.Metrics()
	if m.LRUSize != 1 || m.LRUBytes != int64(len(small)) {
		t.Fatalf("LRU size/bytes = %d/%d, want 1/%d", m.LRUSize, m.LRUBytes, len(small))
	}
	if m.LRUHits != 1 {
		t.Fatalf("LRU hits = %d, want 1", m.LRUHits)
	}
}

func TestMetricsHistogramBuckets(t *testing.T) {
	var m metrics
	m.observe(10 * time.Microsecond)  // bucket 0 (<= 50us)
	m.observe(700 * time.Microsecond) // <= 1000us
	m.observe(20 * time.Second)       // +Inf
	if got := m.latency[0].Load(); got != 1 {
		t.Fatalf("bucket[<=50us] = %d, want 1", got)
	}
	if got := m.latency[4].Load(); got != 1 {
		t.Fatalf("bucket[<=1ms] = %d, want 1", got)
	}
	if got := m.latency[len(latencyBucketsUS)].Load(); got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
	if m.latSum.Load() != 10+700+20_000_000 {
		t.Fatalf("latency sum = %d", m.latSum.Load())
	}
}
