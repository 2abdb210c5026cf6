// Command reportgen renders the full experiment report (E1–E22) from the
// scenario registry — the automated regeneration of the measured sections in
// EXPERIMENTS.md — and is the registry's command-line front end. Every
// experiment is resolved through internal/experiment; this binary is
// registry iteration plus rendering and holds no per-experiment code.
//
// Usage:
//
//	reportgen [-out report.md] [-workers 4] [-only E3,E7] [-json] [-list]
//	          [-cache-dir DIR] [-cache-stats]
//	reportgen -run 'id=E1&competitors=8&seed=7' [-json] [-out FILE] [-workers 4] [-cache-dir DIR]
//	reportgen -timeline doc.txt [-out report.md] [-workers 4] [-json]
//
// -run runs one scenario with any params and seed. Its argument is humnetd's
// /run query, read by the same parser (experiment.Registry.ParseJob); with
// -json the output is byte for byte the body GET /run?<query> serves.
//
// -workers bounds the goroutines used per sweep-style scenario and across
// scenarios; every table is bit-identical for any value. With -cache-dir,
// results are stored content-addressed on disk and a warm re-run renders the
// byte-identical report without re-executing unchanged scenarios
// (-cache-stats reports hits/misses on stderr).
//
// -timeline replays a timeline document (a base BGP topology plus `@<tick>
// <event>` lines; see internal/timeline) through the incremental engine and
// renders its per-tick series instead of the registry report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
	_ "repro/internal/experiment/all"
	"repro/internal/timeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reportgen: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the whole program behind a single error-propagating exit path;
// main's log.Fatal is the only place that terminates.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("reportgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the report here (default stdout)")
	workers := fs.Int("workers", 0, "worker goroutines for sweep scenarios and the batch runner (0 = GOMAXPROCS); output is identical for any value")
	only := fs.String("only", "", "comma-separated scenario IDs to run (default: every report scenario)")
	jsonOut := fs.Bool("json", false, "render JSON instead of Markdown")
	list := fs.Bool("list", false, "list every registered scenario with its params and exit")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory (empty = no cache)")
	cacheStats := fs.Bool("cache-stats", false, "report cache hits/misses on stderr after the run")
	timelinePath := fs.String("timeline", "", "replay this timeline document (base topology + @tick events) and render its series instead of the report")
	runQuery := fs.String("run", "", "run one scenario given as a /run query, e.g. 'id=E1&competitors=8&seed=7'; with -json, print humnetd's /run body")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runQuery != "" && (*only != "" || *timelinePath != "") {
		return errors.New("-run cannot be combined with -only or -timeline")
	}

	if *list {
		_, err := io.WriteString(stdout, experiment.RenderList(experiment.All()))
		return err
	}
	var results []*experiment.Result
	if *timelinePath != "" {
		res, err := replayTimeline(*timelinePath, *workers)
		if err != nil {
			return err
		}
		results = []*experiment.Result{res}
	} else {
		jobs, err := selectJobs(*only, *runQuery)
		if err != nil {
			return err
		}
		runner := &experiment.Runner{Workers: *workers, ScenarioWorkers: *workers}
		if *cacheDir != "" {
			cache, err := experiment.OpenCache(*cacheDir)
			if err != nil {
				return err
			}
			runner.Cache = cache
		}
		if results, err = runner.Run(context.Background(), jobs); err != nil {
			return err
		}
		if *cacheStats {
			st := runner.Stats()
			if _, err := fmt.Fprintf(stderr, "cache: %d hits, %d misses\n", st.Hits, st.Misses); err != nil {
				return err
			}
		}
	}

	var rendered []byte
	var err error
	switch {
	case *jsonOut && *runQuery != "":
		rendered, err = experiment.RenderOneJSON(results[0])
	case *jsonOut:
		rendered, err = experiment.RenderJSON(results)
	default:
		rendered = []byte(experiment.RenderMarkdown(results))
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, rendered, 0o644); err != nil {
			return err
		}
		_, err := fmt.Fprintf(stdout, "wrote %s\n", *out)
		return err
	}
	_, err = stdout.Write(rendered)
	return err
}

// replayTimeline replays a timeline document through the incremental BGP
// engine into a Result holding the per-tick series. The document must carry
// a base topology — a stream alone has no state to replay against.
func replayTimeline(path string, workers int) (*experiment.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	doc, err := timeline.ParseDoc(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if doc.Topo == nil {
		return nil, fmt.Errorf("timeline document %s has no base topology to replay against", path)
	}
	ctx := context.Background()
	m, err := timeline.NewBGPMachine(ctx, doc.Topo, workers)
	if err != nil {
		return nil, err
	}
	series, err := timeline.ReplayCtx(ctx, doc.Stream, m)
	if err != nil {
		return nil, err
	}
	res := &experiment.Result{ID: "timeline", Title: fmt.Sprintf("Timeline replay: %s", filepath.Base(path))}
	series.Table(res, "timeline", res.Title)
	return res, nil
}

// selectJobs turns the selection flags into jobs. A -run query is one job
// through the shared /run parser; otherwise the -only filter resolves
// against the registry (empty means every report scenario; IDs, auxiliary
// ones included, come back in registry order) at default params and seeds.
func selectJobs(only, runQuery string) ([]experiment.Job, error) {
	if runQuery != "" {
		q, err := url.ParseQuery(runQuery)
		if err != nil {
			return nil, fmt.Errorf("-run: %w", err)
		}
		job, err := experiment.Default.ParseJob(q)
		if err != nil {
			return nil, err
		}
		return []experiment.Job{job}, nil
	}
	scenarios := experiment.Report()
	if only != "" {
		want := make(map[string]bool)
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, ok := experiment.Get(id); !ok {
				return nil, fmt.Errorf("unknown scenario %q in -only (try -list)", id)
			}
			want[id] = true
		}
		if len(want) == 0 {
			return nil, fmt.Errorf("-only selected no scenarios")
		}
		scenarios = nil
		for _, s := range experiment.All() {
			if want[s.ID()] {
				scenarios = append(scenarios, s)
			}
		}
	}
	jobs := make([]experiment.Job, len(scenarios))
	for i, s := range scenarios {
		jobs[i] = experiment.NewJob(s)
	}
	return jobs, nil
}
