package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
)

// span is one timed call, recorded from the benchmark's side of a layer
// boundary. Spans of one operation (a request, a report pass, a replay)
// share Op; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef names a live span as a parent for the spans it causes.
type spanRef struct{ id, op int64 }

// tracer keeps spans in memory while on. A nil or switched-off tracer runs
// the traced calls without recording them, so traced and untraced phases
// share one code path.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// newID reserves a span ID, for spans whose times are known only after the
// fact (a client request whose ID travels in a header).
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(name string, id int64, parent spanRef, start, end time.Time) {
	s := span{ID: id, Parent: parent.id, Op: parent.op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record runs fn as a span named name under parent; fn receives its own
// span as the parent for nested calls.
func (t *tracer) record(name string, parent spanRef, fn func(self spanRef) error) error {
	if !t.active() {
		return fn(parent)
	}
	self := spanRef{id: t.newID(), op: parent.op}
	start := time.Now()
	err := fn(self)
	t.add(name, self.id, parent, start, time.Now())
	return err
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// traceHeader carries the client span ("<op>/<id>") to the server side.
const traceHeader = "X-Bench-Span"

func formatRef(ref spanRef) string {
	return strconv.FormatInt(ref.op, 10) + "/" + strconv.FormatInt(ref.id, 10)
}

func parseRef(s string) spanRef {
	op, id, ok := strings.Cut(s, "/")
	if !ok {
		return spanRef{}
	}
	o, err1 := strconv.ParseInt(op, 10, 64)
	i, err2 := strconv.ParseInt(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{id: i, op: o}
}

// middleware wraps the server's handler in a serve.request span nested
// under the client's span, and hands the span to the scenario wrapper
// through the request context. Response bytes are untouched.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := parseRef(r.Header.Get(traceHeader))
		_ = t.record("serve.request", parent, func(self spanRef) error {
			next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), self)))
			return nil
		})
	})
}

// execSpan names the span around one scenario execution.
func execSpan(id string) string { return "experiment.exec." + id }

// timedRegistry re-registers every scenario of the default registry with its
// Run wrapped in an exec span nested under the span the context carries.
// IDs, titles, schemas and results are unchanged, so cache keys and
// response bodies are too.
func timedRegistry(t *tracer) (*experiment.Registry, error) {
	reg := experiment.NewRegistry()
	for _, sc := range experiment.All() {
		sc := sc
		err := reg.Register(experiment.Def{
			ID: sc.ID(), Title: sc.Title(), Claim: sc.Claim(), Seed: sc.DefaultSeed(),
			Aux: experiment.Default.IsAux(sc.ID()), Params: sc.Params(),
			Run: func(ctx context.Context, p experiment.Values, seed uint64) (*experiment.Result, error) {
				var res *experiment.Result
				err := t.record(execSpan(sc.ID()), spanFrom(ctx), func(self spanRef) error {
					var err error
					res, err = sc.Run(withSpan(ctx, self), p, seed)
					return err
				})
				return res, err
			},
		})
		if err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// selfTime is s's duration minus the part of it covered by the union of its
// children's intervals, so overlapping children (parallel scenario
// executions under one report pass) are not subtracted twice.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.dur() - time.Duration(covered)
}

// spanStats aggregates spans by name: count, total duration and total self
// time.
type spanStat struct {
	n          int
	total, own time.Duration
}

func (s spanStat) mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.total / time.Duration(s.n)
}

func (s spanStat) meanSelf() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.own / time.Duration(s.n)
}

func aggregate(spans []span) map[string]spanStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanStat)
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.total += s.dur()
		st.own += selfTime(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// writeTrace writes the spans to dir/<workload>.trace.json.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
