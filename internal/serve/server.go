// Package serve turns the experiment registry and its hardened
// content-addressed cache into an HTTP scenario-serving daemon — the warm
// path behind cmd/humnetd. It layers, outermost first:
//
//   - a bounded in-memory LRU of rendered /run responses (lru.go), so the
//     popular head of a skewed workload never touches the disk cache;
//   - request coalescing: requests that miss the LRU while another
//     request for the same cache key is executing wait for its answer
//     instead of executing again;
//   - the disk cache: any (id, params, seed) triple executes at most once
//     per cache lifetime, however many requests ask for it;
//   - graceful shedding: a bounded admission queue with a per-request wait
//     deadline answers 429 (queue full) or 503 (wait timed out) with a
//     Retry-After hint instead of letting load collapse the process.
//
// Responses are pure functions of the request: equal (id, params, seed)
// yield byte-identical bodies across requests, cache tiers, and process
// restarts, which is what makes the service load-testable by digest
// (cmd/humnetload). The package takes its clock as a value (Config.Now)
// rather than reading time.Now, matching the repo-wide wildrand rule.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
)

// Config sizes one Server. The zero value of each knob picks a sensible
// production default; tests override them to force shedding and eviction.
type Config struct {
	// Registry resolves scenario IDs; nil means experiment.Default.
	Registry *experiment.Registry
	// Cache is the content-addressed disk cache; nil serves from memory
	// only (LRU + coalescing still apply).
	Cache *experiment.Cache
	// LRUSize bounds the in-memory response cache (entries); <= 0 disables
	// it.
	LRUSize int
	// LRUBytes bounds the LRU's resident response bytes; time-series
	// responses dwarf scalar ones, so the entry bound alone does not cap the
	// footprint. A body larger than the whole budget is served but never
	// cached. <= 0 means no byte bound.
	LRUBytes int64
	// MaxInFlight bounds concurrently-executing /run requests; <= 0 means
	// GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; once the
	// queue is full further requests are answered 429 immediately. < 0
	// means no queueing at all.
	MaxQueue int
	// QueueTimeout is how long a queued request waits for a slot before
	// being answered 503; <= 0 means 2s.
	QueueTimeout time.Duration
	// RetryAfter is the hint stamped on 429/503 responses; <= 0 means 1s.
	RetryAfter time.Duration
	// ScenarioWorkers is the per-scenario sweep parallelism hint; output is
	// bit-identical for any value.
	ScenarioWorkers int
	// Now supplies the wall clock for latency metrics. cmd/humnetd passes
	// time.Now; nil records every latency as zero (the histogram still
	// counts requests).
	Now func() time.Time
}

// Server is the HTTP scenario-serving daemon state.
type Server struct {
	cfg    Config
	reg    *experiment.Registry
	runner *experiment.Runner
	now    func() time.Time

	mu      sync.Mutex
	lru     *lru
	fills   map[string]*fill // in-progress LRU misses by cache key
	waiting int              // requests parked on another request's fill

	slots  chan struct{}
	queued atomic.Int64
	met    metrics
}

// New builds a Server from cfg, applying defaults for zero-valued knobs.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = experiment.Default
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	now := cfg.Now
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	return &Server{
		cfg: cfg,
		reg: reg,
		runner: &experiment.Runner{
			ScenarioWorkers: cfg.ScenarioWorkers,
			Cache:           cfg.Cache,
		},
		now:   now,
		lru:   newLRU(cfg.LRUSize, cfg.LRUBytes),
		fills: make(map[string]*fill),
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /run", s.handleRun)
	mux.HandleFunc("GET /list", s.handleList)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// errorBody is the JSON shape of every non-200 response.
func errorBody(msg string) []byte {
	data, err := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	if err != nil {
		return []byte(`{"error":"internal"}`)
	}
	return append(data, '\n')
}

// writeJSON writes one response; a failed write means the client is gone,
// which is not the server's error to handle.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// parseRun resolves a /run query into (scenario, param overrides, seed).
// A non-zero status reports the client error to answer with.
func (s *Server) parseRun(q url.Values) (sc experiment.Scenario, over experiment.Values, seed uint64, status int, msg string) {
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	// A repeated param, id and seed included, is ambiguous: q.Get would
	// silently keep the first value.
	for _, name := range names {
		if n := len(q[name]); n != 1 {
			return nil, nil, 0, http.StatusBadRequest, fmt.Sprintf("param %q given %d times, want exactly one value", name, n)
		}
	}
	id := q.Get("id")
	if id == "" {
		return nil, nil, 0, http.StatusBadRequest, "missing required query param id"
	}
	sc, ok := s.reg.Get(id)
	if !ok {
		return nil, nil, 0, http.StatusNotFound, fmt.Sprintf("unknown scenario %q (see /list)", id)
	}
	seed = sc.DefaultSeed()
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return nil, nil, 0, http.StatusBadRequest, fmt.Sprintf("bad seed %q: %v", raw, err)
		}
		seed = v
	}
	schema := sc.Params()
	over = make(experiment.Values)
	for _, name := range names {
		if name == "id" || name == "seed" {
			continue
		}
		spec, ok := schema.Lookup(name)
		if !ok {
			return nil, nil, 0, http.StatusBadRequest, fmt.Sprintf("scenario %s has no param %q (see /list)", sc.ID(), name)
		}
		v, err := spec.Parse(q.Get(name))
		if err != nil {
			return nil, nil, 0, http.StatusBadRequest, err.Error()
		}
		over[name] = v
	}
	return sc, over, seed, 0, ""
}

// acquire admits one /run request into the bounded execution stage. It
// returns a release func on success, or the shed status (429 when the queue
// is full, 503 when the slot wait timed out or the client gave up).
func (s *Server) acquire(r *http.Request) (func(), int) {
	release := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return release, 0
	default:
	}
	if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, http.StatusTooManyRequests
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return release, 0
	case <-timer.C:
		return nil, http.StatusServiceUnavailable
	case <-r.Context().Done():
		return nil, http.StatusServiceUnavailable
	}
}

// shed answers a 429/503 with the configured Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests {
		s.met.shedQueue.Add(1)
	} else {
		s.met.shedWait.Add(1)
	}
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, errorBody(http.StatusText(status)+"; retry later"))
}

// fill is one in-progress LRU miss. Its leader runs the job behind
// admission and renders the body; requests that miss the LRU for the same
// key meanwhile wait on done, and all of them answer with its outcome.
type fill struct {
	done   chan struct{}
	status int    // 200, the shed status, or 500
	body   []byte // the rendered response when status is 200
	msg    string // the error message when status is 500
}

// handleRun serves one scenario execution: LRU, then a fill of the same key
// in progress, then admission and the runner over the disk cache, executing
// only on a full miss.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	s.met.requests.Add(1)

	sc, over, seed, status, msg := s.parseRun(r.URL.Query())
	if status != 0 {
		if status == http.StatusNotFound {
			s.met.notFound.Add(1)
		} else {
			s.met.bad.Add(1)
		}
		writeJSON(w, status, errorBody(msg))
		return
	}
	merged, err := sc.Params().Merge(over)
	if err != nil {
		s.met.bad.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
		return
	}
	key := experiment.CacheKey(sc.ID(), merged, seed)

	// The LRU lookup and joining a fill share one critical section, and the
	// leader caches its body and retires its fill in another, so a miss
	// finds either the body or the fill producing it and never executes
	// the key a second time.
	s.mu.Lock()
	if entry, ok := s.lru.get(key); ok {
		s.mu.Unlock()
		s.met.lruHits.Add(1)
		s.finishRun(w, start, entry.body)
		return
	}
	if f, ok := s.fills[key]; ok {
		s.waiting++
		s.mu.Unlock()
		s.awaitFill(w, r, start, f)
		return
	}
	f := &fill{done: make(chan struct{}), status: http.StatusInternalServerError, msg: "serve: run aborted"}
	s.fills[key] = f
	s.mu.Unlock()

	func() {
		// Retire the fill even if the run panics, so its key is never
		// stranded; waiters then answer 500.
		defer func() {
			s.mu.Lock()
			if f.status == http.StatusOK {
				s.lru.add(key, f.body)
			}
			delete(s.fills, key)
			s.mu.Unlock()
			close(f.done)
		}()
		s.execute(r, f, experiment.Job{Scenario: sc, Params: over, Seed: seed})
	}()
	s.answer(w, start, f)
}

// execute runs a fill's job once admitted and renders its body.
func (s *Server) execute(r *http.Request, f *fill, job experiment.Job) {
	release, shedStatus := s.acquire(r)
	if shedStatus != 0 {
		f.status = shedStatus
		return
	}
	defer release()
	res, err := s.runner.RunOne(r.Context(), job)
	if err == nil {
		f.body, err = experiment.RenderOneJSON(res)
	}
	if err != nil {
		f.msg = err.Error()
		return
	}
	f.status = http.StatusOK
}

// awaitFill parks a request on another request's fill and answers with its
// outcome, or with 500 if the client gives up first.
func (s *Server) awaitFill(w http.ResponseWriter, r *http.Request, start time.Time, f *fill) {
	select {
	case <-f.done:
	case <-r.Context().Done():
		f = &fill{status: http.StatusInternalServerError, msg: r.Context().Err().Error()}
	}
	s.mu.Lock()
	s.waiting--
	s.mu.Unlock()
	s.met.coalesced.Add(1)
	s.answer(w, start, f)
}

// answer writes a finished fill's outcome and counts it.
func (s *Server) answer(w http.ResponseWriter, start time.Time, f *fill) {
	switch f.status {
	case http.StatusOK:
		s.finishRun(w, start, f.body)
	case http.StatusInternalServerError:
		s.met.failed.Add(1)
		writeJSON(w, f.status, errorBody(f.msg))
	default:
		s.shed(w, f.status)
	}
}

// finishRun stamps success metrics and writes the response body.
func (s *Server) finishRun(w http.ResponseWriter, start time.Time, body []byte) {
	s.met.runOK.Add(1)
	s.met.observe(s.now().Sub(start))
	writeJSON(w, http.StatusOK, body)
}

// ListParam is one schema entry in the /list response.
type ListParam struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Default string `json:"default"`
	Doc     string `json:"doc,omitempty"`
}

// ListScenario is one registry entry in the /list response.
type ListScenario struct {
	ID          string      `json:"id"`
	Title       string      `json:"title"`
	Claim       string      `json:"claim,omitempty"`
	DefaultSeed uint64      `json:"default_seed"`
	Aux         bool        `json:"aux,omitempty"`
	Params      []ListParam `json:"params"`
}

// handleList serves the full registry in registry order — the machine-
// readable version of reportgen -list.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.met.requests.Add(1)
	all := s.reg.All()
	out := make([]ListScenario, len(all))
	for i, sc := range all {
		schema := sc.Params()
		params := make([]ListParam, len(schema))
		for pi, spec := range schema {
			params[pi] = ListParam{
				Name:    spec.Name,
				Kind:    spec.Kind.String(),
				Default: experiment.FormatValue(spec.Default),
				Doc:     spec.Doc,
			}
		}
		out[i] = ListScenario{
			ID:          sc.ID(),
			Title:       sc.Title(),
			Claim:       sc.Claim(),
			DefaultSeed: sc.DefaultSeed(),
			Aux:         s.reg.IsAux(sc.ID()),
			Params:      params,
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody(err.Error()))
		return
	}
	writeJSON(w, http.StatusOK, append(data, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.met.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// Metrics returns the current counter snapshot; /metrics renders it as JSON.
func (s *Server) Metrics() Snapshot {
	st := s.runner.Stats()
	s.mu.Lock()
	lruLen, lruBytes := s.lru.len(), s.lru.size()
	s.mu.Unlock()

	snap := Snapshot{
		Requests:  s.met.requests.Load(),
		RunOK:     s.met.runOK.Load(),
		LRUHits:   s.met.lruHits.Load(),
		DiskHits:  st.Hits,
		Coalesced: s.met.coalesced.Load(),
		Executed:  st.Misses,

		BadRequest: s.met.bad.Load(),
		NotFound:   s.met.notFound.Load(),
		ShedQueue:  s.met.shedQueue.Load(),
		ShedWait:   s.met.shedWait.Load(),
		Failed:     s.met.failed.Load(),
		LRUSize:    lruLen,
		LRUBytes:   lruBytes,
		LatSumUS:   s.met.latSum.Load(),
	}
	snap.LRUHitRatio = ratio(snap.LRUHits, snap.RunOK)
	snap.DiskHitRatio = ratio(snap.DiskHits, snap.RunOK)
	snap.ExecRatio = ratio(snap.Executed, snap.RunOK)
	snap.LatencyHist = make([]LatencyBucket, 0, len(latencyBucketsUS)+1)
	for i, ub := range latencyBucketsUS {
		snap.LatencyHist = append(snap.LatencyHist, LatencyBucket{LEUS: ub, Count: s.met.latency[i].Load()})
	}
	snap.LatencyHist = append(snap.LatencyHist, LatencyBucket{LEUS: 0, Count: s.met.latency[len(latencyBucketsUS)].Load()})
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.met.requests.Add(1)
	data, err := json.MarshalIndent(s.Metrics(), "", "  ")
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody(err.Error()))
		return
	}
	writeJSON(w, http.StatusOK, append(data, '\n'))
}
