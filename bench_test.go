package repro

// The benchmark harness: one benchmark per experiment in DESIGN.md's
// experiment index (E1–E16). Each benchmark measures the cost of
// regenerating its experiment and, on first run, prints the same rows the
// corresponding section of EXPERIMENTS.md records, so
//
//	go test -bench=. -benchmem
//
// reproduces every table/series in one command.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/bgpsim"
	"repro/internal/biblio"
	"repro/internal/cn"
	"repro/internal/diary"
	"repro/internal/ethno"
	"repro/internal/experiment"
	"repro/internal/focusgroup"
	"repro/internal/graph"
	"repro/internal/ixp"
	"repro/internal/par"
	"repro/internal/positionality"
	"repro/internal/qualcode"
	"repro/internal/rng"
	"repro/internal/standards"
	"repro/internal/survey"
)

var printOnce sync.Map

// printTable emits a table exactly once per experiment across all bench
// iterations and -cpu runs.
func printTable(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

func BenchmarkE1Circumvention(b *testing.B) {
	var rows []ixp.CircumventionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ixp.CircumventionSweepCtx(context.Background(), 6, 0.6, 6, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E1", func() {
		fmt.Fprintln(os.Stderr, "\nE1 — Mandatory peering vs ASN circumvention (Telmex case, §3)")
		fmt.Fprintln(os.Stderr, "scenario                 shells  sessions  locality  incumbent-locality")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-24s %6d  %8d  %8.3f  %18.3f\n",
				r.Mode, r.Shells, r.IXPSessions, r.DomesticShare, r.IncumbentLocal)
		}
	})
}

func BenchmarkE2IXPGravity(b *testing.B) {
	presences := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	var rows []ixp.GravityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ixp.GravitySweepCtx(context.Background(), 60, 6, presences, 42, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E2", func() {
		fmt.Fprintln(os.Stderr, "\nE2 — Giant-IXP gravity vs local content presence (DE-CIX case, §3)")
		fmt.Fprintln(os.Stderr, "content-presence  giant-share  local-share  transit-share  remote-peered")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%16.2f  %11.3f  %11.3f  %13.3f  %13d\n",
				r.ContentPresence, r.GiantIXPShare, r.LocalIXPShare, r.TransitShare, r.RemotePeered)
		}
	})
}

func BenchmarkE3Congestion(b *testing.B) {
	cfg := cn.SimConfig{
		Members: 30, HeavyFrac: 0.2, CapacityFactor: 0.6,
		Epochs: 300, Seed: 42,
	}
	var rows []cn.SimResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cn.CompareSchedulers(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E3", func() {
		fmt.Fprintln(os.Stderr, "\nE3 — Community congestion management (CPR credits vs baselines, §4)")
		fmt.Fprintln(os.Stderr, "scheduler      light-protected  light-sat  burst-sat  heavy-sat  utilization")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-13s %15.3f  %9.3f  %9.3f  %9.3f  %11.3f\n",
				r.Scheduler, r.LightProtected, r.LightSatisfaction, r.BurstSatisfaction,
				r.HeavySatisfaction, r.Utilization)
		}
	})
}

func BenchmarkE4Discovery(b *testing.B) {
	cfg := par.DefaultDiscoveryConfig()
	var rows []par.DiscoveryRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = par.RunDiscovery(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E4", func() {
		fmt.Fprintln(os.Stderr, "\nE4 — Problem discovery: data-driven vs participatory (§1, §2)")
		fmt.Fprintln(os.Stderr, "pipeline        marginal-share  marginal-pop  mean-impact  impact-captured")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-14s %14.3f  %12.3f  %11.3f  %15.3f\n",
				r.Pipeline, r.MarginalShare, r.MarginalPopShare, r.MeanAgendaImpact, r.ImpactCaptured)
		}
	})
}

func BenchmarkE5Concentration(b *testing.B) {
	cfg := biblio.DefaultGenConfig()
	cfg.Papers = 2000
	cfg.Authors = 1200
	var rows []biblio.E5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = biblio.RunE5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E5", func() {
		fmt.Fprintln(os.Stderr, "\nE5 — Who is in the room: concentration & method mix (§1, §6.3)")
		fmt.Fprintln(os.Stderr, "venue      papers  qual-share  classified-qual  affil-gini  top10-share  south-share")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-9s %7d  %10.3f  %15.3f  %10.3f  %11.3f  %11.3f\n",
				r.Venue, r.Papers, r.QualitativeShare, r.ClassifiedQual,
				r.AffiliationGini, r.Top10AffilShare, r.SouthAuthorShare)
		}
	})
}

func BenchmarkE6Reliability(b *testing.B) {
	var rows []qualcode.ReliabilityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = qualcode.ReliabilityCurve(6, 3, 0.55, 0.45, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E6", func() {
		fmt.Fprintln(os.Stderr, "\nE6 — Inter-rater reliability vs codebook refinement (§5.2)")
		fmt.Fprintln(os.Stderr, "iteration  accuracy  mean-kappa  fleiss  kripp-alpha  agreement")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%9d  %8.3f  %10.3f  %6.3f  %11.3f  %9.3f\n",
				r.Iteration, r.CoderAccuracy, r.MeanKappa, r.FleissKappa, r.KrippAlpha, r.Agreement)
		}
	})
}

func BenchmarkE7Patchwork(b *testing.B) {
	cfg := ethno.DefaultE7Config()
	var rows []ethno.E7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ethno.RunE7(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E7", func() {
		fmt.Fprintln(os.Stderr, "\nE7 — Fieldwork scheduling under a fixed budget (§3)")
		fmt.Fprintln(os.Stderr, "strategy    visits  insight  insight/day  sites  reflections  travel-overhead")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-11s %6d  %7.1f  %11.3f  %5d  %11d  %15.3f\n",
				r.Strategy, r.Visits, r.Insight, r.Insight/r.BudgetDays, r.SitesCovered,
				r.Reflections, r.TravelOverhead)
		}
	})
}

func BenchmarkE8Sampling(b *testing.B) {
	cfg := survey.DefaultE8Config()
	var rows []survey.E8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = survey.RunE8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E8", func() {
		fmt.Fprintln(os.Stderr, "\nE8 — Survey reach into hard-to-reach strata (§6.2 fn.3)")
		fmt.Fprintln(os.Stderr, "design      contacted  respondents  response-rate  marginal-share  marginal-pop  bias")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-11s %9d  %11d  %13.3f  %14.3f  %12.3f  %+.3f\n",
				r.Design, r.Contacted, r.Respondents, r.ResponseRate,
				r.MarginalShare, r.MarginalPop, r.Bias)
		}
	})
}

func BenchmarkE9Lens(b *testing.B) {
	cfg := positionality.DefaultLensConfig()
	var rows []positionality.LensRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = positionality.RunLens(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E9", func() {
		fmt.Fprintln(os.Stderr, "\nE9 — Agenda divergence vs lens strength (§5.3)")
		fmt.Fprintln(os.Stderr, "strength  divergence  contested-prop  contested-skep")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%8.2f  %10.3f  %14.3f  %14.3f\n",
				r.Strength, r.Divergence, r.ContestedShareProponent, r.ContestedShareSkeptic)
		}
	})
}

func BenchmarkE10Iteration(b *testing.B) {
	cfg := par.DefaultIterateConfig()
	var rows []par.IterateRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = par.RunIteration(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E10", func() {
		fmt.Fprintln(os.Stderr, "\nE10 — Iterative co-design vs one-shot design (§2)")
		fmt.Fprintln(os.Stderr, "iteration  iterative-fit  one-shot-fit")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%9d  %13.3f  %12.3f\n", r.Iteration, r.IterativeFit, r.OneShotFit)
		}
	})
}

func BenchmarkE11Standards(b *testing.B) {
	shares := []float64{0, 0.15, 0.3, 0.45, 0.6}
	var rows []standards.E11Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = standards.Sweep(shares, standards.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E11", func() {
		fmt.Fprintln(os.Stderr, "\nE11 — Practitioner engagement in the standards process (§2)")
		fmt.Fprintln(os.Stderr, "process                rfcs  rounds-to-rfc  final-fit  deploy-any  deploy-per-rfc")
		for _, r := range rows {
			name := fmt.Sprintf("open (practitioners %.2f)", r.PractitionerShare)
			if r.Closed {
				name = "closed consortium"
			}
			fmt.Fprintf(os.Stderr, "%-22s %5d  %13.1f  %9.3f  %10.3f  %14.3f\n",
				name, r.RFCs, r.MeanRoundsToRFC, r.MeanFinalFit, r.DeploymentShare, r.MeanDeployPerRFC)
		}
	})
}

func BenchmarkE12Diary(b *testing.B) {
	var daily, sc diary.Coverage
	var weekly []float64
	for i := 0; i < b.N; i++ {
		cfg := diary.DefaultConfig()
		cfg.Days = 42
		ds, err := diary.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		daily = diary.Reconcile(cfg, ds)
		weekly = diary.WeeklyDiaryCoverage(cfg, ds)

		cfg.Prompting = diary.SignalContingent
		ds2, err := diary.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sc = diary.Reconcile(cfg, ds2)
	}
	printTable("E12", func() {
		fmt.Fprintln(os.Stderr, "\nE12 — Diaries + technology probes (§6.1, ref [7])")
		fmt.Fprintln(os.Stderr, "prompting          diary-cov  probe-cov  combined  non-instr-diary")
		fmt.Fprintf(os.Stderr, "%-17s %10.3f  %9.3f  %8.3f  %15.3f\n",
			"daily", daily.DiaryOnly, daily.ProbeOnly, daily.Combined, daily.NonInstrumentableDiary)
		fmt.Fprintf(os.Stderr, "%-17s %10.3f  %9.3f  %8.3f  %15.3f\n",
			"signal-contingent", sc.DiaryOnly, sc.ProbeOnly, sc.Combined, sc.NonInstrumentableDiary)
		fmt.Fprintf(os.Stderr, "weekly diary coverage (compliance decay): %.3f\n", weekly)
	})
}

func BenchmarkE13FocusGroup(b *testing.B) {
	var rows []focusgroup.Result
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = focusgroup.Compare(focusgroup.DefaultParticipants(), 150, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E13", func() {
		fmt.Fprintln(os.Stderr, "\nE13 — Focus-group facilitation (§6.1)")
		fmt.Fprintln(os.Stderr, "strategy     speaking-jain  insight-cov  quiet-cov  interventions")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-12s %13.3f  %11.3f  %9.3f  %13d\n",
				r.Strategy, r.SpeakingJain, r.InsightCoverage, r.QuietCoverage, r.Interventions)
		}
	})
}

func BenchmarkE14RouteLeak(b *testing.B) {
	var rows []bgpsim.LeakRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bgpsim.RunLeakSweepCtx(context.Background(), 8, 20, 5, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E14", func() {
		fmt.Fprintln(os.Stderr, "\nE14 — Route-leak blast radius vs leaker position (§6.2.2)")
		fmt.Fprintln(os.Stderr, "leaker  asn   providers  affected  affected-share")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-6s  %-4d  %9d  %8d  %14.3f\n",
				r.LeakerKind, r.LeakerASN, r.Providers, r.Affected, r.AffectedShare)
		}
	})
}

// BenchmarkA1TopologyGap is the placement ablation: the near/far max-min
// rate gap under an arbitrary vs the 1-median gateway (see EXPERIMENTS.md
// "Ablations").
func BenchmarkA1TopologyGap(b *testing.B) {
	var rows []cn.TopoGapRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cn.TopoGapExperiment(30, 0.35, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("A1", func() {
		fmt.Fprintln(os.Stderr, "\nA1 — Gateway placement vs near/far rate gap (ablation)")
		fmt.Fprintln(os.Stderr, "placement  quartile  mean-hops  mean-rate")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-9s  %8d  %9.2f  %9.4f\n", r.Placement, r.Quartile, r.MeanHops, r.MeanRate)
		}
		fmt.Fprintf(os.Stderr, "gap: default %.2fx, optimized %.2fx\n",
			cn.NearFarGap(rows, "default"), cn.NearFarGap(rows, "optimized"))
	})
}

func BenchmarkE15CFPDynamics(b *testing.B) {
	var locked, blind, intervention []biblio.CFPYear
	for i := 0; i < b.N; i++ {
		var err error
		cfg := biblio.DefaultCFPConfig()
		locked, err = biblio.RunCFP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.QualWeight = 1
		blind, err = biblio.RunCFP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg = biblio.DefaultCFPConfig()
		cfg.Years = 40
		cfg.InterventionYear = 20
		intervention, err = biblio.RunCFP(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E15", func() {
		fmt.Fprintln(os.Stderr, "\nE15 — CFP dynamics: method-mix lock-in and recovery (§6.4)")
		fmt.Fprintf(os.Stderr, "settled accepted qualitative share: biased venue %.3f, method-blind %.3f\n",
			biblio.FinalQualShare(locked, 5), biblio.FinalQualShare(blind, 5))
		fmt.Fprintln(os.Stderr, "intervention run (CFP change at year 20): accepted qual share by year")
		for _, r := range intervention {
			if r.Year%4 == 0 || r.Year == 20 || r.Year == 21 {
				fmt.Fprintf(os.Stderr, "  year %2d (w=%.2f): %.3f\n", r.Year, r.QualWeightInEffect, r.AcceptedQualShare)
			}
		}
	})
}

func BenchmarkE16Hijack(b *testing.B) {
	var rows []bgpsim.HijackRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bgpsim.RunHijackSweepCtx(context.Background(), 8, 20, 5, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("E16", func() {
		fmt.Fprintln(os.Stderr, "\nE16 — Exact-prefix hijack capture vs attacker position (§6.2.2)")
		fmt.Fprintln(os.Stderr, "attacker  asn   captured  captured-share")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "%-8s  %-4d  %8d  %14.3f\n",
				r.AttackerKind, r.AttackerASN, r.Captured, r.CapturedShare)
		}
	})
}

// BenchmarkA2CPRRollover is the credit-scheme memory ablation: light users'
// burst satisfaction as the rollover cap grows.
func BenchmarkA2CPRRollover(b *testing.B) {
	caps := []float64{1, 2, 3, 5, 8}
	results := make([]cn.SimResult, len(caps))
	cfg := cn.SimConfig{
		Members: 30, HeavyFrac: 0.2, CapacityFactor: 0.6,
		Epochs: 300, Seed: 42,
	}
	for i := 0; i < b.N; i++ {
		for j, cap := range caps {
			res, err := cn.Simulate(cfg, &cn.CPR{RolloverCap: cap})
			if err != nil {
				b.Fatal(err)
			}
			results[j] = res
		}
	}
	printTable("A2", func() {
		fmt.Fprintln(os.Stderr, "\nA2 — CPR rollover-cap ablation")
		fmt.Fprintln(os.Stderr, "rollover-cap  burst-sat  light-protected")
		for j, cap := range caps {
			fmt.Fprintf(os.Stderr, "%12.0f  %9.3f  %15.3f\n",
				cap, results[j].BurstSatisfaction, results[j].LightProtected)
		}
	})
}

// BenchmarkA3ReflectionCrossover is the patchwork-mechanism ablation on a
// single site: the reflection gain at which split visits beat one stay.
func BenchmarkA3ReflectionCrossover(b *testing.B) {
	gains := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3}
	ratios := make([]float64, len(gains))
	for i := 0; i < b.N; i++ {
		for j, g := range gains {
			cfg := ethno.DefaultE7Config()
			cfg.Sites = 1
			cfg.Params.ReflectGain = g
			rows, err := ethno.RunE7(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ratios[j] = rows[1].Insight / rows[0].Insight
		}
	}
	printTable("A3", func() {
		fmt.Fprintln(os.Stderr, "\nA3 — Reflection-gain crossover, single site (patchwork/continuous insight)")
		for j, g := range gains {
			marker := ""
			if ratios[j] > 1 {
				marker = "  <- patchwork wins"
			}
			fmt.Fprintf(os.Stderr, "  gain=%.2f  ratio=%.2f%s\n", g, ratios[j], marker)
		}
	})
}

// --- Parallel engine benchmarks -------------------------------------------
//
// The Serial/Parallel pairs below measure the internal/parallel fan-out on
// the hot analysis paths. Results are bit-identical across worker counts
// (see internal/parallel's package doc), so the pairs differ only in time.

func benchGraph() *graph.Graph {
	return graph.BarabasiAlbert(600, 3, rng.New(1))
}

func BenchmarkBetweennessSerial(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BetweennessCentralityCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBetweennessParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BetweennessCentralityCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosenessSerial(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ClosenessCentralityCtx(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosenessParallel(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ClosenessCentralityCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiblioGraph runs the registered biblio-graph study at the bench
// harness's graph workload shape (1000 papers, 500 authors): corpus
// generation, coauthorship graph, k-core, communities and both exact
// centralities.
func BenchmarkBiblioGraph(b *testing.B) {
	sc, ok := experiment.Get("biblio-graph")
	if !ok {
		b.Fatal("biblio-graph not registered")
	}
	p, err := sc.Params().Merge(experiment.Values{"papers": 1000, "authors": 500})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(ctx, p, sc.DefaultSeed()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKCore(b *testing.B) {
	g := graph.BarabasiAlbert(20000, 3, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.KCore()
	}
}
