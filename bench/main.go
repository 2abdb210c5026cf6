// Command bench is humnet's benchmark: seven seeded workloads covering the
// scenario server's three cache tiers, the report batch, cold BGP
// convergence, composed timeline replay and the coauthorship-graph study.
// Each run sets its workload up several times (reporting the median set-up
// time), measures it for a fixed time, checks its outputs, and prints every
// metric declared in BENCHMARK.json by name with its unit; the last line of
// standard output is one JSON object with the result.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench --workload serve-hot --seed 1 --seconds 10 --trace 0
//	bench --workload all [--runs 10 --record A.json]
//	bench --compare A.json B.json
//
// --trace 1 measures half the time untraced and half traced, prints the
// per-layer metrics and the tracing overhead, and writes the spans to
// .bench_build/trace/<workload>.trace.json. --workload all runs every
// workload in its own child process. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/bgpsim"
	_ "repro/internal/experiment/all"
)

// env is what every workload is given.
type env struct {
	seed  uint64
	nproc int // client connections, GOMAXPROCS and every worker count
	root  string
	work  string
	size  sizes
	tr    *tracer // nil in untraced runs
}

// state is a workload after set-up.
type state interface {
	// measure runs the timed phase for d.
	measure(ctx context.Context, d time.Duration) (phaseResult, error)
	// check runs the output checks that need the whole run.
	check(ctx context.Context) error
	close()
}

// phaseResult is one measured phase.
type phaseResult struct {
	lat, late         []time.Duration // per op; late only for open-loop requests
	attempted, failed int
	layers            map[string]float64
}

// checkFailure marks a wrong output, as opposed to a failure to run.
type checkFailure struct{ msg string }

func (c checkFailure) Error() string { return "output check failed: " + c.msg }

type workload struct {
	name  string
	setup func(context.Context, *env) (state, error)
}

var workloads = []workload{
	{"serve-hot", func(ctx context.Context, e *env) (state, error) { return setupServe(ctx, e, e.size.hot) }},
	{"serve-disk", func(ctx context.Context, e *env) (state, error) { return setupServe(ctx, e, e.size.disk) }},
	{"serve-miss", func(ctx context.Context, e *env) (state, error) { return setupServe(ctx, e, e.size.miss) }},
	{"report", setupReport},
	{"converge", setupConverge},
	{"replay", setupReplay},
	{"graph", setupGraph},
}

// sizes holds every workload's input sizes and offered rates. The rates are
// about a fifth of the closed-loop capacity measured on the machine
// README.md describes (README.md, "Interactions", says why not more); they
// are constants, never recomputed per run.
type sizes struct {
	hot, disk, miss           serveShape
	layerSamples              int
	converge                  bgpsim.HierarchyOpts
	storm                     stormShape
	graphPapers, graphAuthors int
	setupRuns                 int
	refProbes                 int // reference-kernel timings before each set-up
}

// as10k is the 10k-AS hub-tier hierarchy of bgpsim's scale benchmarks.
var as10k = bgpsim.HierarchyOpts{NMid: 1600, NStub: 8400, Hubs: 24, OriginEvery: 16}

var fullSize = sizes{
	hot:          serveShape{lruSize: 4096, variants: 4, zipf: 1.1, rate: 3000},
	disk:         serveShape{lruSize: 24, variants: 12, rate: 1000},
	miss:         serveShape{lruSize: 4096, rate: 30},
	layerSamples: 1000,
	converge:     as10k,
	storm: stormShape{topo: as10k, ticks: 20, perTick: 4, hold: 3,
		members: 24, failProb: 0.04, repairAfter: 4, surge: 2.5, reachBelow: 0.995},
	graphPapers: 1000, graphAuthors: 500,
	setupRuns: 5, refProbes: 4,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all to run each in its own child process")
	seed := fs.Uint64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 0, "length of the measured phase (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	runs := fs.Int("runs", 1, "with --workload all: runs per workload, with seeds seed, seed+1, ...")
	record := fs.String("record", "", "with --workload all: add every result to this JSON file")
	compare := fs.Bool("compare", false, "compare two recorded files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *compare {
		return compareFiles(stdout, sp, fs.Args())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	d := time.Duration(float64(sp.RunSeconds) * float64(time.Second))
	if *seconds > 0 {
		d = time.Duration(*seconds * float64(time.Second))
	}
	if *name == "all" {
		return runAll(stdout, stderr, sp, *seed, d, *trace, *runs, *record)
	}
	w, err := findWorkload(sp, *name)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp("", "humnet-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{seed: *seed, nproc: nproc, root: ".", work: work, size: fullSize}
	if *trace == 1 {
		e.tr = newTracer()
	}
	if _, err := fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d %s\n",
		w.name, e.seed, d.Seconds(), *trace, nproc, runtime.GOMAXPROCS(0), runtime.Version()); err != nil {
		return err
	}
	m, err := runWorkload(context.Background(), w, e, d)
	var cf checkFailure
	if errors.As(err, &cf) {
		if perr := printResult(stdout, outcome{Attempted: max(m.attempted, 1), Failed: m.failed, Metrics: map[string]metricValue{}}); perr != nil {
			return perr
		}
		return err
	}
	if err != nil {
		return err
	}
	if e.tr != nil {
		path, err := writeTrace(filepath.Join(".bench_build", "trace"), w.name, e.seed, e.tr.snapshot())
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "bench: trace written to %s\n", path); err != nil {
			return err
		}
	}
	return emit(stdout, sp, m, e.tr != nil)
}

func findWorkload(sp *spec, name string) (workload, error) {
	declared := false
	for _, w := range sp.Workloads {
		declared = declared || w.Name == name
	}
	for _, w := range workloads {
		if w.name == name && declared {
			return w, nil
		}
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// measurement is everything one run produced, keyed by metric name.
type measurement struct {
	values            map[string]float64
	rawSetup          float64 // setup_s without the speed correction
	attempted, failed int
	samples           int
	warnings          []string
}

// runWorkload sets w up size.setupRuns times (keeping the last), measures
// it for d (traced runs: d/2 untraced, then d/2 traced), and runs its
// checks. Each set-up time is corrected for the machine's speed (calib.go).
func runWorkload(ctx context.Context, w workload, e *env, d time.Duration) (*measurement, error) {
	m := &measurement{values: make(map[string]float64)}
	var setups, rawSetups []float64
	var st state
	for i := 0; i < e.size.setupRuns; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		scale := refScale(e.nproc, e.size.refProbes)
		t0 := time.Now()
		s, err := w.setup(ctx, e)
		if err != nil {
			return m, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		raw := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*scale)
		st = s
	}
	defer st.close()

	phase := d
	if e.tr != nil {
		phase = d / 2
	}
	rss := startRSS()
	rt0 := readRuntime()
	base, err := st.measure(ctx, phase)
	rt1 := readRuntime()
	peak, rssErr := rss.finish()
	m.attempted, m.failed = base.attempted, base.failed
	if err != nil {
		return m, err
	}
	if rssErr != nil {
		return m, rssErr
	}
	lat := sortedMS(base.lat)
	m.samples = len(lat)
	m.values["setup_s"] = median(setups)
	m.rawSetup = median(rawSetups)
	m.values["p50_ms"] = percentile(lat, 50)
	m.values["p99_ms"] = p99(base.lat)
	m.values["peak_rss_mb"] = peak
	m.values["gen.late_p99_ms"] = percentile(sortedMS(base.late), 99)
	m.values["runtime.alloc_mb_per_op"] = (rt1.alloc - rt0.alloc) / (1 << 20) / float64(max(base.attempted, 1))
	if cpu := rt1.cpu - rt0.cpu; cpu > 0 {
		m.values["runtime.gc_cpu_fraction"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	for k, v := range base.layers {
		m.values[k] = v
	}
	if e.tr != nil {
		e.tr.on.Store(true)
		traced, err := st.measure(ctx, d-phase)
		e.tr.on.Store(false)
		m.attempted += traced.attempted
		m.failed += traced.failed
		if err != nil {
			return m, err
		}
		for k, v := range traced.layers {
			m.values[k] = v
		}
		for k, v := range spanMetrics(aggregate(e.tr.snapshot()), e.nproc) {
			m.values[k] = v
		}
		if p50 := m.values["p50_ms"]; p50 > 0 {
			m.values["trace.overhead_pct"] = (percentile(sortedMS(traced.lat), 50)/p50 - 1) * 100
		}
	}
	if err := st.check(ctx); err != nil {
		return m, err
	}
	m.warnings = shapeWarnings(w.name, m.values)
	return m, nil
}

// spanMetrics turns the traced phase's spans into per-layer metrics: mean
// time per call for each timed public call, mean self time of a served
// request (all but scenario execution) and of a cold report pass (time no
// scenario was executing), and the report batch's worker utilization.
func spanMetrics(agg map[string]spanStat, workers int) map[string]float64 {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	out := make(map[string]float64)
	for name, st := range agg {
		if id, ok := strings.CutPrefix(name, "experiment.exec."); ok {
			out["experiment.exec_ms."+id] = ms(st.mean())
		}
	}
	for span, metric := range map[string]string{
		"experiment.parse": "experiment.parse_us", "experiment.cache_key": "experiment.cache_key_us",
		"experiment.disk_get": "experiment.disk_get_us", "experiment.disk_put": "experiment.disk_put_us",
		"experiment.render_json": "experiment.render_json_us", "experiment.render_md": "experiment.render_md_ms",
		"bgpsim.converge":    "bgpsim.converge_ms",
		"timeline.apply.bgp": "timeline.apply_us.bgp", "timeline.apply.cn": "timeline.apply_us.cn",
		"timeline.observe.bgp": "timeline.observe_us.bgp", "timeline.observe.cn": "timeline.observe_us.cn",
		"timeline.cascade": "timeline.cascade_us", "timeline.unwind": "timeline.unwind_ms",
		"biblio.generate": "biblio.generate_ms", "biblio.coauthor": "biblio.coauthor_ms",
		"graph.label_prop": "graph.label_prop_ms", "graph.kcore": "graph.kcore_ms",
		"graph.betweenness": "graph.betweenness_ms", "graph.closeness": "graph.closeness_ms",
	} {
		if st, ok := agg[span]; ok {
			if strings.Contains(metric, "_us") {
				out[metric] = us(st.mean())
			} else {
				out[metric] = ms(st.mean())
			}
		}
	}
	if st, ok := agg["serve.request"]; ok {
		out["serve.request_self_us"] = us(st.meanSelf())
	}
	if cold, ok := agg["report.cold"]; ok && cold.total > 0 {
		out["experiment.batch_self_ms"] = ms(cold.meanSelf())
		var exec time.Duration
		for name, st := range agg {
			if strings.HasPrefix(name, "experiment.exec.") {
				exec += st.total
			}
		}
		out["experiment.batch_util"] = float64(exec) / (float64(workers) * float64(cold.total))
	}
	if run, ok := agg["experiment.exec.biblio-graph"]; ok {
		rest := run.mean()
		for _, p := range []string{"biblio.generate", "biblio.coauthor", "graph.label_prop", "graph.kcore", "graph.betweenness", "graph.closeness"} {
			rest -= agg[p].mean()
		}
		out["graph.scenario_rest_ms"] = ms(rest)
	}
	return out
}

// shapeWarnings flags a run whose traffic no longer stresses the tier the
// workload exists for, so a change that moves work between tiers is
// reported instead of silently absorbed.
func shapeWarnings(name string, v map[string]float64) []string {
	var out []string
	floor := map[string]struct {
		metric string
		min    float64
	}{
		"serve-hot":  {"serve.lru_hit_ratio", 0.99},
		"serve-disk": {"serve.disk_hit_ratio", 0.8},
		"serve-miss": {"serve.exec_ratio", 0.6},
	}
	if f, ok := floor[name]; ok && v[f.metric] < f.min {
		out = append(out, fmt.Sprintf("%s is %.3f, below %.2f: the workload no longer exercises its tier", f.metric, v[f.metric], f.min))
	}
	if late := v["gen.late_p99_ms"]; late > 5 {
		out = append(out, fmt.Sprintf("gen.late_p99_ms is %.2f ms: the load generator fell behind its schedule", late))
	}
	return out
}

type runtimeSample struct{ alloc, gcCPU, cpu float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// outcome is the result line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the declared metrics (end-to-end, or per-layer for a traced
// run) one per line, then the warnings, then the result line. A per-layer
// metric the workload does not exercise reads 0 in a traced run.
func emit(w io.Writer, sp *spec, m *measurement, traced bool) error {
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	out := outcome{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: make(map[string]metricValue)}
	var b bytes.Buffer
	fmt.Fprintf(&b, "  %-34s %d attempted, %d failed, %d timed samples\n", "ops", m.attempted, m.failed, m.samples)
	for _, metric := range list {
		v, ok := m.values[metric.Name]
		if !ok && !traced {
			return fmt.Errorf("the workload produced no %s", metric.Name)
		}
		out.Metrics[metric.Name] = metricValue{Value: v, Unit: metric.Unit}
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", metric.Name, v, metric.Unit)
	}
	if !traced {
		fmt.Fprintf(&b, "  %-34s %14.4f s (as measured, without the speed correction)\n", "setup_s", m.rawSetup)
		// The per-layer metrics an untraced run measures anyway, for reading
		// only: the result line carries the end-to-end metrics alone.
		for _, metric := range sp.PerLayer {
			if v, ok := m.values[metric.Name]; ok {
				fmt.Fprintf(&b, "  %-34s %14.4f %s (per-layer)\n", metric.Name, v, metric.Unit)
			}
		}
	}
	for _, warn := range m.warnings {
		fmt.Fprintln(&b, "bench: warning:", warn)
	}
	if _, err := w.Write(b.Bytes()); err != nil {
		return err
	}
	return printResult(w, out)
}

func printResult(w io.Writer, o outcome) error {
	data, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// runRecord is one run as --record stores it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   outcome `json:"result"`
}

// runAll runs every declared workload, each in its own child process so
// peak RSS and GC state never leak between workloads, runs times with
// consecutive seeds, echoing each child's output.
func runAll(stdout, stderr io.Writer, sp *spec, seed uint64, d time.Duration, trace, runs int, record string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var recs []runRecord
	for r := 0; r < runs; r++ {
		for _, w := range sp.Workloads {
			s := seed + uint64(r)
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(d.Seconds(), 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if _, werr := stdout.Write(out); werr != nil {
				return werr
			}
			if err != nil {
				return fmt.Errorf("workload %s seed %d: %w", w.Name, s, err)
			}
			var last string
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				last = sc.Text()
			}
			rec := runRecord{Workload: w.Name, Seed: s, Trace: trace}
			if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
				return fmt.Errorf("workload %s seed %d: result line: %w", w.Name, s, err)
			}
			recs = append(recs, rec)
		}
	}
	if record == "" {
		return nil
	}
	// Appending lets two checkouts take turns seed by seed (README.md,
	// "Comparing two versions"), so host drift hits both sides alike.
	if old, err := loadRecords(record); err == nil {
		recs = append(old, recs...)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(record, append(data, '\n'), 0o644)
}
