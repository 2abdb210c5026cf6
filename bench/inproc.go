package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/biblio"
	"repro/internal/cn"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/timeline"
)

// loopOps runs op until d has elapsed (at least once), collecting each op's
// latency. A collection runs before every op, outside the timed interval,
// so each op starts from the same heap state instead of paying for the
// previous op's garbage.
func loopOps(ctx context.Context, d time.Duration, op func(i int) (time.Duration, error)) ([]time.Duration, error) {
	var lat []time.Duration
	end := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		if err := ctx.Err(); err != nil {
			return lat, err
		}
		runtime.GC()
		l, err := op(i)
		if err != nil {
			return lat, err
		}
		lat = append(lat, l)
	}
	return lat, nil
}

// registryFor is the default registry, or in traced runs its exec-timing
// wrapper.
func registryFor(e *env) (*experiment.Registry, error) {
	if e.tr == nil {
		return experiment.Default, nil
	}
	return timedRegistry(e.tr)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- report: the reportgen path, cold then warm, checked against REPORT.md.

type reportState struct {
	e    *env
	jobs []experiment.Job
	want string
	next int
}

func setupReport(ctx context.Context, e *env) (state, error) {
	want, err := os.ReadFile(filepath.Join(e.root, "REPORT.md"))
	if err != nil {
		return nil, err
	}
	reg, err := registryFor(e)
	if err != nil {
		return nil, err
	}
	s := &reportState{e: e, want: string(want)}
	for _, sc := range reg.Report() {
		s.jobs = append(s.jobs, experiment.NewJob(sc))
	}
	// One full cold and warm pass, so lazy initialization and the page
	// cache are warm before timing.
	if _, _, err := s.op(ctx, -1); err != nil {
		return nil, err
	}
	return s, nil
}

// pass runs the batch through a fresh Runner on cache and renders it.
func (s *reportState) pass(ctx context.Context, name string, root spanRef, cache *experiment.Cache) (string, experiment.CacheStats, error) {
	r := &experiment.Runner{Workers: s.e.nproc, ScenarioWorkers: s.e.nproc, Cache: cache}
	var md string
	err := s.e.tr.record(name, root, func(self spanRef) error {
		results, err := r.Run(withSpan(ctx, self), s.jobs)
		if err != nil {
			return err
		}
		return s.e.tr.record("experiment.render_md", self, func(spanRef) error {
			md = experiment.RenderMarkdown(results)
			return nil
		})
	})
	return md, r.Stats(), err
}

// op is one cold pass on an empty cache directory and one warm pass on the
// filled one; both renderings must equal the committed REPORT.md.
func (s *reportState) op(ctx context.Context, i int) (cold, warm time.Duration, err error) {
	dir, err := os.MkdirTemp(s.e.work, "report-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cache, err := experiment.OpenCache(dir)
	if err != nil {
		return 0, 0, err
	}
	root := spanRef{op: int64(i)}
	t0 := time.Now()
	coldMD, _, err := s.pass(ctx, "report.cold", root, cache)
	cold = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	warmMD, st, err := s.pass(ctx, "report.warm", root, cache)
	warm = time.Since(t1)
	if err != nil {
		return 0, 0, err
	}
	switch {
	case coldMD != s.want:
		return 0, 0, checkFailure{"cold report differs from REPORT.md"}
	case warmMD != s.want:
		return 0, 0, checkFailure{"warm report differs from REPORT.md"}
	case st.Misses != 0 || st.Hits != int64(len(s.jobs)):
		return 0, 0, checkFailure{fmt.Sprintf("warm pass: %d hits, %d misses, want %d hits", st.Hits, st.Misses, len(s.jobs))}
	}
	if s.e.tr.active() {
		err = s.replayCache(cache, root)
	}
	return cold, warm, err
}

// replayCache times Cache.Get on every report entry and Cache.Put of each
// into a scratch cache.
func (s *reportState) replayCache(cache *experiment.Cache, root spanRef) error {
	dir, err := os.MkdirTemp(s.e.work, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := experiment.OpenCache(dir)
	if err != nil {
		return err
	}
	for _, j := range s.jobs {
		merged, err := j.Scenario.Params().Merge(j.Params)
		if err != nil {
			return err
		}
		key := experiment.CacheKey(j.Scenario.ID(), merged, j.Seed)
		var res *experiment.Result
		if err := s.e.tr.record("experiment.disk_get", root, func(spanRef) error {
			var ok bool
			if res, ok = cache.Get(key, j.Scenario.ID()); !ok {
				return fmt.Errorf("%s missing from the warm cache", j.Scenario.ID())
			}
			return nil
		}); err != nil {
			return err
		}
		if err := s.e.tr.record("experiment.disk_put", root, func(spanRef) error {
			return scratch.Put(key, res)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (s *reportState) measure(ctx context.Context, d time.Duration) (phaseResult, error) {
	var warm []float64
	lat, err := loopOps(ctx, d, func(int) (time.Duration, error) {
		cold, w, err := s.op(ctx, s.next)
		s.next++
		warm = append(warm, ms(w))
		return cold, err
	})
	return inprocResult(lat, map[string]float64{"experiment.warm_ms": median(warm)}), err
}

func (s *reportState) check(context.Context) error { return nil }
func (s *reportState) close()                      {}

// inprocResult is a phase of len(lat) ops, each one attempt.
func inprocResult(lat []time.Duration, layers map[string]float64) phaseResult {
	return phaseResult{lat: lat, attempted: len(lat), layers: layers}
}

// ---- converge: cold convergence of one large seeded hierarchy.

type convergeState struct {
	e      *env
	h      *bgpsim.Hierarchy
	reach  int
	layers map[string]float64
	next   int
}

// buildTopology builds the seeded hierarchy, timing it.
func buildTopology(e *env, o bgpsim.HierarchyOpts) (*bgpsim.Hierarchy, map[string]float64, error) {
	t0 := time.Now()
	h, err := bgpsim.BuildHierarchyOpts(rng.New(e.seed), o)
	if err != nil {
		return nil, nil, err
	}
	return h, map[string]float64{"bgpsim.build_ms": ms(time.Since(t0))}, nil
}

// setupConverge builds the topology and converges it once into the state
// the incremental engine starts from, which also fixes the reachable-cell
// count every cold convergence must reproduce.
func setupConverge(ctx context.Context, e *env) (state, error) {
	h, layers, err := buildTopology(e, e.size.converge)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := h.Topo.ConvergeStateCtx(ctx, e.nproc)
	if err != nil {
		return nil, err
	}
	layers["bgpsim.converge_state_ms"] = ms(time.Since(t0))
	reach, _ := c.Tables().ReachableCells()
	return &convergeState{e: e, h: h, reach: reach, layers: layers}, nil
}

func (s *convergeState) measure(ctx context.Context, d time.Duration) (phaseResult, error) {
	var allocMB []float64
	lat, err := loopOps(ctx, d, func(int) (time.Duration, error) {
		root := spanRef{op: int64(s.next)}
		s.next++
		var before, after runtime.MemStats
		traced := s.e.tr.active()
		if traced {
			runtime.ReadMemStats(&before)
		}
		var rt *bgpsim.RoutingTables
		t0 := time.Now()
		err := s.e.tr.record("bgpsim.converge", root, func(spanRef) error {
			var err error
			rt, err = s.h.Topo.ConvergeCtx(ctx, s.e.nproc)
			return err
		})
		l := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if traced {
			runtime.ReadMemStats(&after)
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		}
		if reach, _ := rt.ReachableCells(); reach != s.reach {
			return 0, checkFailure{fmt.Sprintf("converge reached %d cells, set-up reached %d", reach, s.reach)}
		}
		return l, nil
	})
	layers := maps.Clone(s.layers)
	if len(allocMB) > 0 {
		layers["bgpsim.alloc_mb_per_converge"] = mean(allocMB)
	}
	return inprocResult(lat, layers), err
}

func (s *convergeState) check(context.Context) error { return nil }
func (s *convergeState) close()                      {}

// ---- replay: a composed routing + community-network timeline.

// stormShape sizes the replay workload's event streams.
type stormShape struct {
	topo              bgpsim.HierarchyOpts
	ticks, perTick    int
	hold              int
	members           int
	failProb          float64
	repairAfter       int
	surge, reachBelow float64
}

type replayState struct {
	e      *env
	st     timeline.Stream
	bm     *timeline.BGPMachine
	want   string
	layers map[string]float64
	next   int
}

func setupReplay(ctx context.Context, e *env) (state, error) {
	sh := e.size.storm
	h, layers, err := buildTopology(e, sh.topo)
	if err != nil {
		return nil, err
	}
	storm, err := timeline.GenFlapStorm(h, e.seed, sh.ticks, sh.perTick, sh.hold)
	if err != nil {
		return nil, err
	}
	churn, err := timeline.GenCNChurn(sh.members, e.seed, sh.ticks, sh.failProb, sh.repairAfter)
	if err != nil {
		return nil, err
	}
	st, err := timeline.Merge(storm, churn)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	bm, err := timeline.NewBGPMachine(ctx, h.Topo, e.nproc)
	if err != nil {
		return nil, err
	}
	layers["bgpsim.converge_state_ms"] = ms(time.Since(t0))
	return &replayState{e: e, st: st, bm: bm, layers: layers}, nil
}

// timedMachine times a part's Apply and Observe as spans under the current
// op.
type timedMachine struct {
	timeline.Machine
	tr             *tracer
	root           *spanRef
	apply, observe string
}

func (m timedMachine) Apply(ev timeline.Event) error {
	return m.tr.record(m.apply, *m.root, func(spanRef) error { return m.Machine.Apply(ev) })
}

func (m timedMachine) Observe(tick int) ([]float64, error) {
	var row []float64
	err := m.tr.record(m.observe, *m.root, func(spanRef) error {
		var err error
		row, err = m.Machine.Observe(tick)
		return err
	})
	return row, err
}

// op rebuilds the community part, replays the merged stream with one
// cascade rule (reach-share drop surges community demand, as in E21), and
// unwinds the routing part back to its converged state.
func (s *replayState) op(ctx context.Context, root *spanRef) (replayed time.Duration, out *timeline.ComposedSeries, err error) {
	sh := s.e.size.storm
	cm, err := timeline.NewCNMachine(cn.ChurnConfig{
		Members: sh.members, HeavyFrac: 0.2, CapacityFactor: 0.6, Seed: s.e.seed,
	}, &cn.CPR{})
	if err != nil {
		return 0, nil, err
	}
	var routing, community timeline.Machine = s.bm, cm
	if s.e.tr != nil {
		routing = timedMachine{s.bm, s.e.tr, root, "timeline.apply.bgp", "timeline.observe.bgp"}
		community = timedMachine{cm, s.e.tr, root, "timeline.apply.cn", "timeline.observe.cn"}
	}
	scale := 1.0
	surge := func(o timeline.Obs) []timeline.Event {
		share, ok := o.Value("reach-share")
		if !ok {
			return nil
		}
		want := 1.0
		if share < sh.reachBelow {
			want = sh.surge
		}
		if want == scale {
			return nil
		}
		scale = want
		return []timeline.Event{{Kind: timeline.KindCNDemand, Value: want}}
	}
	comp, err := timeline.Compose(
		[]timeline.Part{{Name: "routing", M: routing}, {Name: "community", M: community}},
		[]timeline.CascadeRule{{Name: "demand-surge", From: "routing", Delay: 1,
			Fire: func(o timeline.Obs) []timeline.Event {
				var evs []timeline.Event
				_ = s.e.tr.record("timeline.cascade", *root, func(spanRef) error {
					evs = surge(o)
					return nil
				})
				return evs
			}}})
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	out, err = comp.ReplayCtx(ctx, s.st)
	replayed = time.Since(t0)
	_ = s.e.tr.record("timeline.unwind", *root, func(spanRef) error {
		s.bm.Unwind()
		return nil
	})
	return replayed, out, err
}

func (s *replayState) measure(ctx context.Context, d time.Duration) (phaseResult, error) {
	var events, cells, injected, dropped float64
	var replayed time.Duration
	lat, err := loopOps(ctx, d, func(int) (time.Duration, error) {
		root := spanRef{op: int64(s.next)}
		s.next++
		t0 := time.Now()
		r, out, err := s.op(ctx, &root)
		l := time.Since(t0)
		if err != nil {
			return 0, err
		}
		replayed += r
		events += float64(len(s.st.Events) + len(out.Injected))
		injected += float64(len(out.Injected))
		dropped += float64(out.Dropped)
		for _, row := range out.Series[0].Rows {
			cells += row[1]
		}
		res := &experiment.Result{ID: "replay", Title: "replay"}
		out.Tables(res, "replay", "replay")
		got := experiment.RenderMarkdown([]*experiment.Result{res})
		if s.want == "" {
			s.want = got
		} else if got != s.want {
			return 0, checkFailure{"replay series or injection log differs from the first replay"}
		}
		if n := s.bm.Applied(); n != 0 {
			return 0, checkFailure{fmt.Sprintf("%d routing events still applied after Unwind", n)}
		}
		return l, nil
	})
	r := inprocResult(lat, maps.Clone(s.layers))
	if replayed > 0 {
		r.layers["timeline.events_per_s"] = events / replayed.Seconds()
	}
	n := float64(len(lat))
	r.layers["timeline.injected"] = injected / n
	r.layers["timeline.dropped"] = dropped / n
	if events > 0 {
		r.layers["timeline.cells_per_event"] = cells / events
	}
	return r, err
}

func (s *replayState) check(context.Context) error { return nil }
func (s *replayState) close()                      {}

// ---- graph: the biblio-graph scenario and its phases.

type graphState struct {
	e      *env
	sc     experiment.Scenario
	params experiment.Values
	want   []byte
	next   int
}

func setupGraph(ctx context.Context, e *env) (state, error) {
	reg, err := registryFor(e)
	if err != nil {
		return nil, err
	}
	sc, ok := reg.Get("biblio-graph")
	if !ok {
		return nil, fmt.Errorf("scenario biblio-graph is not registered")
	}
	params, err := sc.Params().Merge(experiment.Values{"papers": e.size.graphPapers, "authors": e.size.graphAuthors})
	if err != nil {
		return nil, err
	}
	s := &graphState{e: e, sc: sc, params: params}
	// One untimed run warms the heap and fixes the expected output.
	if _, err := s.op(ctx, spanRef{op: -1}); err != nil {
		return nil, err
	}
	return s, nil
}

// op runs the scenario and checks its rendered JSON against the first run.
func (s *graphState) op(ctx context.Context, root spanRef) (time.Duration, error) {
	t0 := time.Now()
	res, err := s.sc.Run(withSpan(experiment.WithWorkers(ctx, s.e.nproc), root), s.params, s.e.seed)
	l := time.Since(t0)
	if err != nil {
		return 0, err
	}
	got, err := experiment.RenderOneJSON(res)
	if err != nil {
		return 0, err
	}
	if s.want == nil {
		s.want = got
	} else if string(got) != string(s.want) {
		return 0, checkFailure{"biblio-graph output differs from the first run"}
	}
	return l, nil
}

// phases times, on the same corpus, the public calls the scenario makes.
func (s *graphState) phases(ctx context.Context, root spanRef) error {
	tr := s.e.tr
	cfg := biblio.DefaultGenConfig()
	cfg.Papers, cfg.Authors, cfg.Seed = s.e.size.graphPapers, s.e.size.graphAuthors, s.e.seed
	var c *biblio.Corpus
	if err := tr.record("biblio.generate", root, func(spanRef) error {
		var err error
		c, err = biblio.Generate(cfg)
		return err
	}); err != nil {
		return err
	}
	var g *graph.Graph
	_ = tr.record("biblio.coauthor", root, func(spanRef) error {
		g, _ = c.CoauthorGraph()
		return nil
	})
	_ = tr.record("graph.label_prop", root, func(spanRef) error {
		g.LabelPropagation(rng.New(s.e.seed), 50)
		return nil
	})
	_ = tr.record("graph.kcore", root, func(spanRef) error {
		g.KCore()
		return nil
	})
	if err := tr.record("graph.betweenness", root, func(spanRef) error {
		_, err := g.BetweennessCentralityCtx(ctx, s.e.nproc)
		return err
	}); err != nil {
		return err
	}
	return tr.record("graph.closeness", root, func(spanRef) error {
		_, err := g.ClosenessCentralityCtx(ctx, s.e.nproc)
		return err
	})
}

func (s *graphState) measure(ctx context.Context, d time.Duration) (phaseResult, error) {
	lat, err := loopOps(ctx, d, func(int) (time.Duration, error) {
		root := spanRef{op: int64(s.next)}
		s.next++
		l, err := s.op(ctx, root)
		if err == nil && s.e.tr.active() {
			err = s.phases(ctx, spanRef{op: root.op})
		}
		return l, err
	})
	return inprocResult(lat, map[string]float64{}), err
}

func (s *graphState) check(context.Context) error { return nil }
func (s *graphState) close()                      {}
