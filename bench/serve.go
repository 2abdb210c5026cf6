package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
)

// serveShape is one serving workload's traffic mix.
type serveShape struct {
	// lruSize is the server's response LRU capacity (humnetd's -lru).
	lruSize int
	// variants is the number of seeds per report scenario in the universe
	// pre-executed during set-up; 0 means every request names a triple
	// never requested before.
	variants int
	// zipf is the popularity skew over the universe (0 = uniform).
	zipf float64
	// rate is the open-loop offered rate in requests per second.
	rate float64
}

// request is one /run query; params are always the scenario defaults
// (spelled out or not), so (scenario, seed) names the triple.
type request struct {
	sc    experiment.Scenario
	seed  uint64
	query string
}

func (r request) triple() string { return r.sc.ID() + "@" + strconv.FormatUint(r.seed, 10) }

// traceLen is the length of the seeded request trace the hot and disk
// workloads cycle through.
const traceLen = 1 << 15

// rederiveEvery picks the serve-miss responses re-derived in-process after
// the run and compared byte for byte.
const rederiveEvery = 50

// openShare is the part of a serve phase spent in the open loop; the rest
// measures closed-loop capacity in closedWindows windows.
const (
	openShare     = 0.8
	closedWindows = 4
)

// serveState is a running server behind a real listener, built the way
// cmd/humnetd builds it, plus the client and the checks' bookkeeping.
type serveState struct {
	e      *env
	shape  serveShape
	scs    []experiment.Scenario
	trace  []request
	next   int
	dir    string
	cache  *experiment.Cache
	reg    *experiment.Registry
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	mu       sync.Mutex
	bodies   map[string][sha256.Size]byte
	mismatch error
	kept     []keptBody
}

type keptBody struct {
	rq   request
	body []byte
}

// setupServe starts a server on a fresh disk cache and pre-executes the
// workload's universe through HTTP.
func setupServe(ctx context.Context, e *env, shape serveShape) (state, error) {
	s := &serveState{e: e, shape: shape, scs: experiment.Report(), bodies: make(map[string][sha256.Size]byte)}
	if shape.variants > 0 {
		ids := make([]string, len(s.scs))
		byID := make(map[string]experiment.Scenario, len(s.scs))
		for i, sc := range s.scs {
			ids[i] = sc.ID()
			byID[sc.ID()] = sc
		}
		reqs, _, err := serve.BuildTrace(serve.TraceSpec{
			IDs: ids, Requests: traceLen, Variants: shape.variants,
			ZipfS: shape.zipf, Seed: e.seed, ParamEcho: 0.25,
		})
		if err != nil {
			return nil, err
		}
		for _, r := range reqs {
			s.trace = append(s.trace, request{sc: byID[r.ScenarioID], seed: r.Seed, query: r.Query})
		}
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.preexecute(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveState) start() error {
	dir, err := os.MkdirTemp(s.e.work, "serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	if s.cache, err = experiment.OpenCache(dir); err != nil {
		return err
	}
	if s.reg, err = registryFor(s.e); err != nil {
		return err
	}
	s.srv = serve.New(serve.Config{
		Registry:        s.reg,
		Cache:           s.cache,
		LRUSize:         s.shape.lruSize,
		LRUBytes:        64 << 20,
		MaxQueue:        1024,
		QueueTimeout:    2 * time.Second,
		RetryAfter:      time.Second,
		ScenarioWorkers: s.e.nproc,
		Now:             time.Now,
	})
	handler := s.srv.Handler()
	if s.e.tr != nil {
		handler = s.e.tr.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     s.e.nproc,
			MaxIdleConnsPerHost: s.e.nproc,
			DisableCompression:  true,
		},
	}
	return nil
}

// preexecute requests every triple of the universe twice (executing it into
// the disk cache, then once more untimed so the first measured requests
// find the caches in their steady state), or for serve-miss one fresh
// triple per scenario so lazy initialization is done before timing.
func (s *serveState) preexecute(ctx context.Context) error {
	var warm []request
	for i, sc := range s.scs {
		if s.shape.variants == 0 {
			warm = append(warm, queryFor(sc, s.e.seed<<32+1<<31+uint64(i)))
			continue
		}
		for v := 0; v < s.shape.variants; v++ {
			warm = append(warm, queryFor(sc, sc.DefaultSeed()+uint64(v)))
		}
	}
	passes := 1
	if s.shape.variants > 0 {
		passes = 2
	}
	for p := 0; p < passes; p++ {
		if err := parallel.ForEach(ctx, len(warm), s.e.nproc, func(i int) error {
			return s.fetch(warm[i], "")
		}); err != nil {
			return fmt.Errorf("pre-execute: %w", err)
		}
	}
	return nil
}

func queryFor(sc experiment.Scenario, seed uint64) request {
	return request{sc: sc, seed: seed, query: "id=" + url.QueryEscape(sc.ID()) + "&seed=" + strconv.FormatUint(seed, 10)}
}

// request returns the i-th request of the measured traffic.
func (s *serveState) request(i int) request {
	if s.shape.variants > 0 {
		return s.trace[i%len(s.trace)]
	}
	// serve-miss: a fresh triple per request, except that every fourth
	// request repeats its predecessor (and is due at the same instant), so
	// coalescing carries real load. Fresh requests take the report
	// scenarios in seeded random order, each once per block of len(scs):
	// uniform like independent draws, but every window of the run carries
	// the same mix of cheap and expensive scenarios.
	if missRepeat(i) {
		i--
	}
	k := i - (i+1)/4 // fresh requests before i
	perm := rng.New(s.e.seed ^ uint64(k/len(s.scs))*0x9E3779B97F4A7C15).Perm(len(s.scs))
	return queryFor(s.scs[perm[k%len(s.scs)]], s.e.seed<<32+uint64(i))
}

func missRepeat(i int) bool { return i%4 == 3 }

// get sends the i-th measured request.
func (s *serveState) get(i int) error {
	rq := s.request(i)
	if !s.e.tr.active() {
		return s.fetch(rq, "")
	}
	id := s.e.tr.newID()
	op := spanRef{op: int64(i)}
	start := time.Now()
	err := s.fetch(rq, formatRef(spanRef{id: id, op: op.op}))
	s.e.tr.add("client.request", id, op, start, time.Now())
	return err
}

// fetch performs one /run request, carrying the client span in a traced
// run, and checks its body against every earlier response for the same
// triple.
func (s *serveState) fetch(rq request, span string) error {
	req, err := http.NewRequest(http.MethodGet, s.base+"/run?"+rq.query, nil)
	if err != nil {
		return err
	}
	if span != "" {
		req.Header.Set(traceHeader, span)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", rq.query, resp.StatusCode)
	}
	sum := sha256.Sum256(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	key := rq.triple()
	if prev, ok := s.bodies[key]; !ok {
		s.bodies[key] = sum
		if s.shape.variants == 0 && len(s.bodies)%rederiveEvery == 0 {
			s.kept = append(s.kept, keptBody{rq: rq, body: body})
		}
	} else if prev != sum && s.mismatch == nil {
		s.mismatch = fmt.Errorf("triple %s: response body differs from an earlier response", key)
	}
	return nil
}

func (s *serveState) measure(ctx context.Context, d time.Duration) (phaseResult, error) {
	before := s.srv.Metrics()
	first := s.next
	var repeat func(int) bool
	if s.shape.variants == 0 {
		repeat = func(i int) bool { return missRepeat(first + i) }
	}
	offsets := schedule(s.shape.rate, time.Duration(float64(d)*openShare), repeat)
	open := openLoop(realClock{}, offsets, s.e.nproc, func(i int) error { return s.get(first + i) })
	s.next += len(offsets)
	res := phaseResult{lat: open.lat, late: open.late, attempted: len(offsets), failed: open.failed}
	var client, tputs []float64
	for _, l := range open.service {
		client = append(client, float64(l)/float64(time.Microsecond))
	}
	// Capacity is the median of several short closed-loop windows, so one
	// burst of interference from outside moves one window, not the result.
	for w := 0; w < closedWindows; w++ {
		closed := closedLoop(realClock{}, (d-time.Duration(float64(d)*openShare))/closedWindows, s.e.nproc, s.next, s.get)
		s.next += len(closed.lat)
		res.attempted += len(closed.lat)
		res.failed += closed.failed
		tputs = append(tputs, closed.throughput())
		for _, l := range closed.lat {
			client = append(client, float64(l)/float64(time.Microsecond))
		}
	}
	res.layers = serveLayers(before, s.srv.Metrics())
	res.layers["serve.capacity_rps"] = median(tputs)
	res.layers["serve.client_gap_us"] = mean(client) - res.layers["serve.server_mean_us"]
	if s.e.tr.active() {
		n := min(s.e.size.layerSamples, len(offsets))
		if err := s.replayLayers(ctx, first, n); err != nil {
			return res, err
		}
	}
	return res, nil
}

// serveLayers turns two /metrics snapshots into the phase's tier shares.
func serveLayers(before, after serve.Snapshot) map[string]float64 {
	ok := float64(after.RunOK - before.RunOK)
	share := func(a, b int64) float64 {
		if ok == 0 {
			return 0
		}
		return float64(a-b) / ok
	}
	m := map[string]float64{
		"serve.lru_hit_ratio":  share(after.LRUHits, before.LRUHits),
		"serve.disk_hit_ratio": share(after.DiskHits, before.DiskHits),
		"serve.exec_ratio":     share(after.Executed, before.Executed),
		"serve.coalesced":      float64(after.Coalesced - before.Coalesced),
		"serve.shed":           float64(after.ShedQueue + after.ShedWait - before.ShedQueue - before.ShedWait),
		"serve.server_mean_us": share(after.LatSumUS, before.LatSumUS),
	}
	return m
}

// replayLayers times the serving path's public calls, one span each, on
// the phase's first n requests: query parsing and param merging, the cache
// key, the disk-cache read and its JSON rendering (which must reproduce the
// served body), and a disk-cache write into a scratch cache.
func (s *serveState) replayLayers(ctx context.Context, first, n int) error {
	scratchDir, err := os.MkdirTemp(s.e.work, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratchDir)
	scratch, err := experiment.OpenCache(scratchDir)
	if err != nil {
		return err
	}
	tr := s.e.tr
	for i := first; i < first+n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rq := s.request(i)
		err := tr.record("layers.replay", spanRef{op: int64(i)}, func(root spanRef) error {
			var (
				sc     experiment.Scenario
				merged experiment.Values
				seed   uint64
				key    string
				res    *experiment.Result
				body   []byte
			)
			if err := tr.record("experiment.parse", root, func(spanRef) error {
				var err error
				sc, merged, seed, err = parseRun(s.reg, rq.query)
				return err
			}); err != nil {
				return err
			}
			_ = tr.record("experiment.cache_key", root, func(spanRef) error {
				key = experiment.CacheKey(sc.ID(), merged, seed)
				return nil
			})
			if err := tr.record("experiment.disk_get", root, func(spanRef) error {
				var ok bool
				if res, ok = s.cache.Get(key, sc.ID()); !ok {
					return fmt.Errorf("%s: not in the disk cache after being served", rq.query)
				}
				return nil
			}); err != nil {
				return err
			}
			if err := tr.record("experiment.render_json", root, func(spanRef) error {
				var err error
				body, err = experiment.RenderOneJSON(res)
				return err
			}); err != nil {
				return err
			}
			s.mu.Lock()
			want := s.bodies[rq.triple()]
			s.mu.Unlock()
			if sha256.Sum256(body) != want {
				return checkFailure{fmt.Sprintf("%s: disk-cache rendering differs from the served body", rq.query)}
			}
			return tr.record("experiment.disk_put", root, func(spanRef) error {
				return scratch.Put(key, res)
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// parseRun is the server's /run parsing done through public calls: query
// decoding, registry lookup, per-param Spec.Parse and Schema.Merge.
func parseRun(reg *experiment.Registry, query string) (experiment.Scenario, experiment.Values, uint64, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return nil, nil, 0, err
	}
	sc, ok := reg.Get(q.Get("id"))
	if !ok {
		return nil, nil, 0, fmt.Errorf("unknown scenario %q", q.Get("id"))
	}
	seed, err := strconv.ParseUint(q.Get("seed"), 10, 64)
	if err != nil {
		return nil, nil, 0, err
	}
	schema := sc.Params()
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	over := make(experiment.Values)
	for _, name := range names {
		if name == "id" || name == "seed" {
			continue
		}
		spec, ok := schema.Lookup(name)
		if !ok {
			return nil, nil, 0, fmt.Errorf("scenario %s has no param %q", sc.ID(), name)
		}
		v, err := spec.Parse(q.Get(name))
		if err != nil {
			return nil, nil, 0, err
		}
		over[name] = v
	}
	merged, err := schema.Merge(over)
	return sc, merged, seed, err
}

// check verifies what needs the whole run: one body per triple, no
// execution beyond the distinct triples requested, and for serve-miss the
// kept responses re-derived in-process byte for byte.
func (s *serveState) check(ctx context.Context) error {
	s.mu.Lock()
	mismatch, distinct, kept := s.mismatch, len(s.bodies), s.kept
	s.mu.Unlock()
	if mismatch != nil {
		return checkFailure{mismatch.Error()}
	}
	if ex := s.srv.Metrics().Executed; ex > int64(distinct) {
		return checkFailure{fmt.Sprintf("server executed %d scenarios for %d distinct triples", ex, distinct)}
	}
	runner := &experiment.Runner{ScenarioWorkers: s.e.nproc}
	for _, k := range kept {
		res, err := runner.RunOne(ctx, experiment.Job{Scenario: k.rq.sc, Seed: k.rq.seed})
		if err != nil {
			return err
		}
		body, err := experiment.RenderOneJSON(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, k.body) {
			return checkFailure{fmt.Sprintf("%s: served body differs from in-process re-derivation", k.rq.query)}
		}
	}
	return nil
}

// close stops the server (every request has completed by now, so there is
// nothing to drain) and waits for it to exit.
func (s *serveState) close() {
	if s.hs != nil {
		_ = s.hs.Close() // its error repeats the listener's, which Serve returns below
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bench: server:", err)
		}
		s.client.CloseIdleConnections()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch space; the whole work dir is removed at exit too
	}
}
