package all

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestNoParamPanics probes every registered scenario one param at a time,
// the way a /run query can ask for it. A bounded Int param is probed at
// each declared bound and one above its minimum, which ParseJob must
// accept, and just outside a bound, which ParseJob must reject with
// ErrBadParam; an unbounded Int is probed at 0, 1 and -1, a Uint at 0 and a
// Float at -1 and 2, which ParseJob must accept, and at NaN and ±Inf, which
// it must reject. Whatever ParseJob accepts must come back from the run as
// a result that prints no NaN or ±Inf cell, or as an error that wraps
// ErrBadParam: a panic or any other error reaches a /run client as a 500
// with no word about which param was wrong.
func TestNoParamPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario about a dozen times; skipped under -short")
	}
	r := &experiment.Runner{Workers: 1, ScenarioWorkers: 2}
	for _, sc := range experiment.All() {
		for _, spec := range sc.Params() {
			var accept, reject []string
			switch {
			case spec.Kind == experiment.Uint:
				accept = []string{"0"}
			case spec.Kind == experiment.Float:
				accept, reject = []string{"-1", "2"}, []string{"NaN", "Inf", "-Inf"}
			case spec.Kind != experiment.Int:
			case spec.Min == nil && spec.Max == nil:
				accept = []string{"0", "1", "-1"}
			default:
				if spec.Min != nil {
					accept, reject = append(accept, strconv.Itoa(*spec.Min)), append(reject, strconv.Itoa(*spec.Min-1))
					if spec.Max == nil || *spec.Min < *spec.Max {
						accept = append(accept, strconv.Itoa(*spec.Min+1))
					}
				}
				if spec.Max != nil {
					accept, reject = append(accept, strconv.Itoa(*spec.Max)), append(reject, strconv.Itoa(*spec.Max+1))
				}
			}
			for _, v := range reject {
				query := fmt.Sprintf("id=%s&%s=%s", sc.ID(), spec.Name, v)
				if _, err := experiment.Default.ParseJob(mustQuery(t, query)); !errors.Is(err, experiment.ErrBadParam) {
					t.Errorf("%s: ParseJob err = %v, want ErrBadParam", query, err)
				}
			}
			for _, v := range accept {
				query := fmt.Sprintf("id=%s&%s=%s", sc.ID(), spec.Name, v)
				job, err := experiment.Default.ParseJob(mustQuery(t, query))
				if err != nil {
					t.Errorf("%s: ParseJob: %v", query, err)
					continue
				}
				res, err := r.RunOne(context.Background(), job)
				if err != nil {
					if !errors.Is(err, experiment.ErrBadParam) {
						t.Errorf("%s: %v, want a result or ErrBadParam", query, err)
					}
					continue
				}
				if cell, ok := nonFiniteCell(res); ok {
					t.Errorf("%s: accepted run prints %s", query, cell)
				}
			}
		}
	}
}

// TestSmallAuthorPopulationIsAnError: both corpus scenarios declare that a
// paper's up to five distinct authors need a population of at least 5, so a
// smaller one is a bad param before anything runs. (biblio.Generate's own
// check, which stopped the generator looping forever, is tested in
// internal/biblio.)
func TestSmallAuthorPopulationIsAnError(t *testing.T) {
	for _, query := range []string{"id=E5&authors=3", "id=biblio-graph&authors=4"} {
		_, err := experiment.Default.ParseJob(mustQuery(t, query))
		if !errors.Is(err, experiment.ErrBadParam) || !strings.Contains(err.Error(), `"authors"`) {
			t.Errorf("%s: err = %v, want ErrBadParam naming authors", query, err)
		}
	}
}

// TestDomainMinimumsAreDeclared: each of these params feeds a domain check
// that refuses values below min, so its schema declares the same minimum and
// ParseJob turns whichever of min-1, 0 and -1 lie below it into a bad param
// before anything runs, not into an execution error after it. E11 `seats` and the visit counts had no
// domain check: below 1, `seats` gave a wrong table (the closed consortium's
// quota went negative and it ratified nothing) and the visit counts were
// clamped to one visit without a word, so the schema minimum is their only
// guard. The mesh studies' `members`/`nodes` feed TopoGapExperiment, which
// needs 8, and the community simulations need 2 members. The routing
// studies need a stub (a sweep victim, a flap, an outage region) and so a
// mid to home it. The Mexican-market replays (E19, E20, E22) take the shape
// checks of GenStagedRollout, GenFlapStorm and NewStakeholderMachine. E2's
// economics model needs an ISP and a local exchange (EconomicSweepCtx).
func TestDomainMinimumsAreDeclared(t *testing.T) {
	for _, param := range []struct {
		id, name string
		min      int
	}{
		{"E4", "problems", 1}, {"E4", "select", 1},
		{"E8", "budget", 1},
		{"E10", "dimensions", 1}, {"E10", "iterations", 1},
		{"E11", "drafts", 1}, {"E11", "rounds", 1}, {"E11", "operators", 1},
		{"E12", "days", 1}, {"E12", "participants", 1},
		{"E15", "years", 1}, {"E15", "researchers", 1},
		{"E11", "seats", 1},
		{"E7", "patchwork-visits", 1}, {"E7", "rapid-visits", 1},
		{"ethno-reflection", "patchwork-visits", 1},
		{"cn-topology", "members", 8}, {"cn-gateway", "nodes", 8},
		{"E3", "epochs", 1}, {"cn-topology", "epochs", 1},
		{"E3", "members", 2}, {"E18", "members", 2}, {"E21", "members", 2},
		{"E14", "mids", 1}, {"E14", "stubs", 1}, {"E16", "mids", 1}, {"E16", "stubs", 1},
		{"E17", "mids", 1}, {"E17", "stubs", 1}, {"E20", "mids", 1}, {"E20", "stubs", 1},
		{"E21", "mids", 1}, {"E21", "stubs", 1},
		{"E19", "start", 0}, {"E19", "wave-every", 1}, {"E19", "wave-size", 1},
		{"E19", "regulate-at", 0}, {"E19", "ticks", 1},
		{"E20", "start", 0}, {"E20", "wave-every", 1}, {"E20", "wave-size", 1},
		{"E20", "regulate-at", 0}, {"E20", "ticks", 1}, {"E20", "hold", 1}, {"E20", "per-tick", 0},
		{"E22", "start", 0}, {"E22", "wave-every", 1}, {"E22", "wave-size", 1},
		{"E22", "ticks", 1}, {"E22", "sample-per-stratum", 1},
		{"E17", "ticks", 1}, {"E17", "per-tick", 0}, {"E17", "hold", 1},
		{"E18", "ticks", 1}, {"E18", "repair-after", 1},
		{"E21", "ticks", 1}, {"E21", "repair-after", 1},
		{"E21", "region", 1}, {"E21", "out-at", 0}, {"E21", "out-len", 1},
		{"E6", "coders", 2},
		{"E2", "econ-isps", 1}, {"E2", "econ-ixps", 1},
	} {
		for _, v := range []int{param.min - 1, 0, -1} {
			if v >= param.min {
				continue
			}
			query := fmt.Sprintf("id=%s&%s=%d", param.id, param.name, v)
			if _, err := experiment.Default.ParseJob(mustQuery(t, query)); !errors.Is(err, experiment.ErrBadParam) {
				t.Errorf("%s: ParseJob err = %v, want ErrBadParam", query, err)
			}
		}
	}
	// Every timeline scenario's horizon is at most timeline.MaxHorizon
	// (65536) ticks.
	for _, id := range []string{"E17", "E18", "E19", "E20", "E21", "E22"} {
		query := fmt.Sprintf("id=%s&ticks=65537", id)
		if _, err := experiment.Default.ParseJob(mustQuery(t, query)); !errors.Is(err, experiment.ErrBadParam) {
			t.Errorf("%s: ParseJob err = %v, want ErrBadParam", query, err)
		}
	}
	// Checks that are not one range: a regulation tick the horizon does not
	// reach (ticks defaults to 14 in E19 and 16 in E20), E22's Float
	// thresholds, a flap storm of more than 2·ticks·per-tick = 4096 events
	// (ticks defaults to 24 in E17 and 16 in E20), and E21's churn plus
	// outage over 4096 events at the largest horizon.
	checkBadParams(t, "id=E19&regulate-at=14", "id=E19&ticks=1", "id=E20&regulate-at=16",
		"id=E22&respond-below=1.5", "id=E22&respond-below=-0.1", "id=E22&noise=-1",
		"id=E17&hold=0", "id=E17&ticks=0", "id=E18&ticks=0", "id=E19&ticks=70000&regulate-at=10",
		"id=E20&per-tick=5000", "id=E17&per-tick=86", "id=E20&per-tick=129", "id=E6&coders=1",
		"id=E21&ticks=65536")
}

// TestMeshRadiusIsABadParam: a radius that is not positive links no two
// nodes (0, NaN) or is no radio range at all (negative), so both mesh studies
// refuse it as a bad param instead of failing inside BuildMesh or acting on
// its absolute value. NaN is refused by ParseJob, the rest by the run.
func TestMeshRadiusIsABadParam(t *testing.T) {
	var queries []string
	for _, id := range []string{"cn-gateway", "cn-topology"} {
		for _, radius := range []string{"0", "-0.35", "NaN"} {
			queries = append(queries, fmt.Sprintf("id=%s&radius=%s", id, radius))
		}
	}
	checkBadParams(t, queries...)
}

// TestNonFiniteFloatIsABadParam: no Float param gives NaN or ±Inf a meaning,
// so ParseJob refuses them with ErrBadParam. Each of these queries would
// otherwise run and print a table with a NaN cell.
func TestNonFiniteFloatIsABadParam(t *testing.T) {
	for _, query := range []string{
		"id=E1&incumbent-share=NaN", "id=E2&content-volume=NaN", "id=E2&transit-price=NaN",
		"id=E6&base-accuracy=NaN", "id=E6&gain=NaN", "id=E7&budget-days=NaN",
		"id=E10&step-size=NaN", "id=E10&initial-error=NaN", "id=E15&qual-weight=NaN",
		"id=ethno-reflection&budget-days=NaN", "id=E1&incumbent-share=Inf", "id=E10&step-size=-Inf",
	} {
		if _, err := experiment.Default.ParseJob(mustQuery(t, query)); !errors.Is(err, experiment.ErrBadParam) {
			t.Errorf("%s: ParseJob err = %v, want ErrBadParam", query, err)
		}
	}
}

// TestMeshScenariosAtSmallestSize runs every scenario that builds a
// community mesh at its smallest accepted member or node count over seeds
// 1..20: the smallest meshes draw the most disconnected placements, and each
// run must succeed or be refused as a bad param, never fail by chance. An
// accepted run prints no NaN or ±Inf cell.
func TestMeshScenariosAtSmallestSize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five scenarios over 20 seeds; skipped under -short")
	}
	r := &experiment.Runner{Workers: 1}
	for _, param := range []struct{ id, name string }{
		{"E3", "members"}, {"E18", "members"}, {"E21", "members"},
		{"cn-topology", "members"}, {"cn-gateway", "nodes"},
	} {
		sc, ok := experiment.Get(param.id)
		if !ok {
			t.Fatalf("%s is not registered", param.id)
		}
		spec, _ := sc.Params().Lookup(param.name)
		min := spec.Min
		if min == nil {
			t.Fatalf("%s %s declares no minimum", param.id, param.name)
		}
		for seed := 1; seed <= 20; seed++ {
			query := fmt.Sprintf("id=%s&%s=%d&seed=%d", param.id, param.name, *min, seed)
			job, err := experiment.Default.ParseJob(mustQuery(t, query))
			if err != nil {
				t.Fatalf("%s: ParseJob: %v", query, err)
			}
			res, err := r.RunOne(context.Background(), job)
			if err != nil {
				if !errors.Is(err, experiment.ErrBadParam) {
					t.Errorf("%s: %v", query, err)
				}
				continue
			}
			if cell, ok := nonFiniteCell(res); ok {
				t.Errorf("%s: accepted run prints %s", query, cell)
			}
		}
	}
}

// nonFiniteCell returns the first cell of res that reads as NaN or ±Inf,
// signed or not, with its table, row and column.
func nonFiniteCell(res *experiment.Result) (string, bool) {
	for _, tb := range res.Tables {
		for i, row := range tb.Rows {
			for j, cell := range row {
				if f, err := strconv.ParseFloat(strings.TrimLeft(cell, "+-"), 64); err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
					return fmt.Sprintf("%q in table %s row %d column %s", cell, tb.ID, i, tb.Columns[j]), true
				}
			}
		}
	}
	return "", false
}

// TestE3NeedsHeavyAndLightUsers: E3 prints light and heavy users'
// satisfaction side by side, so a configuration whose members × heavy-frac
// draws no heavy user or no light user is a bad param, not a table of NaN.
// So is a run too short to draw a light-user burst, which has no burst-sat.
func TestE3NeedsHeavyAndLightUsers(t *testing.T) {
	checkBadParams(t, "id=E3&members=2", "id=E3&members=4", "id=E3&heavy-frac=0",
		"id=E3&heavy-frac=1", "id=E3&members=5&epochs=1&seed=1", "id=E3&members=5&epochs=1&seed=3")
}

// TestCongestionConfigIsABadParam: E3, cn-topology, E18 and E21 step one
// congestion engine, which refuses a heavy-frac outside [0, 1] (more heavy
// users than members) and a capacity-factor that is not finite and positive
// (a gateway that serves nothing), so each answers a bad param, never a
// panic or a table of NaN or of nothing served.
func TestCongestionConfigIsABadParam(t *testing.T) {
	var queries []string
	for _, id := range []string{"E3", "cn-topology", "E18", "E21"} {
		for _, param := range []string{
			"heavy-frac=2", "heavy-frac=-0.5", "heavy-frac=NaN",
			"capacity-factor=0", "capacity-factor=-1", "capacity-factor=NaN", "capacity-factor=Inf",
		} {
			queries = append(queries, fmt.Sprintf("id=%s&%s", id, param))
		}
	}
	checkBadParams(t, queries...)
}

// checkBadParams wants each query refused with ErrBadParam: by ParseJob
// (a non-finite Float) or else by the run.
func checkBadParams(t *testing.T, queries ...string) {
	t.Helper()
	r := &experiment.Runner{Workers: 1}
	for _, query := range queries {
		job, err := experiment.Default.ParseJob(mustQuery(t, query))
		if err == nil {
			_, err = r.RunOne(context.Background(), job)
		}
		if !errors.Is(err, experiment.ErrBadParam) {
			t.Errorf("%s: err = %v, want ErrBadParam", query, err)
		}
	}
}

func mustQuery(t *testing.T, query string) url.Values {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRunBodyGolden pins the /run body (RenderOneJSON of the Runner's
// stamped Result) by SHA-256: every report scenario E1–E22 at its defaults,
// and each study with no golden elsewhere at its defaults and at one
// non-default query. ethno-triangulation at events=0 renders two tables
// with no rows, which must encode as [] and not null. Any change that moves
// a byte of these tables, titles, claims or params fails here.
func TestRunBodyGolden(t *testing.T) {
	checkRunBodies(t, &experiment.Runner{Workers: 1})
}

// runBodyGolden is the committed SHA-256 of each TestRunBodyGolden query's
// /run body.
var runBodyGolden = []struct{ query, want string }{
	{"id=E1", "93d30d29af38b18210851ca7df6a182b675b23e467e547076098b560f3a33d5e"},
	{"id=E2", "817d664adc6bce8bd9028eb1aa06d20f5c990c3b8f015eeaf570ca27ebc9cfba"},
	{"id=E3", "6dd494800ece08c573ee95bb7c3a44437ade5543c95cfd4dd67ceea3b8b2709b"},
	{"id=E4", "9160751bc0f8da2cfff757b79f403a0cebba6f44239209780c39d0cbd6b2b3d8"},
	{"id=E5", "7f50a028f4f2e58a52babd86bf4ec970e2a56aaf572685d5ec09d18e47a8b030"},
	{"id=E6", "beedf42a8738215fa0f79baf48e1d8371148e5d84f685ed734f4dc7fa57e4896"},
	{"id=E7", "cf596d2026c3e443d22e6b421a6b024a994044f4bb16aaceec24f7df98a2404a"},
	{"id=E8", "9af617203fb097b15da7f59ffa3fe01c241a025ec9150dc8b2e5d2f3cf1667a4"},
	{"id=E9", "74d330d5fb01be4c729a82b3027bc07244e2171d9fe9b6d40414e90dd4826c07"},
	{"id=E10", "02bf3354d4c6371a84bb4b9d095a1ef44ff68ee466b89e860b0f01f07d5b9d7f"},
	{"id=E11", "8c0d17a0462fd2857e5b63342fb5523b1268fe0e0caa0ba71b66b27fd18e646f"},
	{"id=E12", "e081b88d1d4ebf9595a5d528a0245586ecbf4f143b55a0f2d4b10f9d482a3c40"},
	{"id=E13", "d46876f88a3ce796bc0e91b689b6e1a046d50e7fd18c8999bc845ae15257a7a3"},
	{"id=E14", "6b9dc63de35a52b32fcb6e3cca23c04e131717fc90e948301709f483e3f48eab"},
	{"id=E15", "f2c030d94316e41907e8be95001a2a87fc9423b6f2234ac175a9c9673928cfc2"},
	{"id=E16", "55391832429acc5221bf1e1f26ef39459087209861336dd5bcce88dba87044c9"},
	{"id=E17", "3a8aa38cd8d9663b51d29f619f3a0ca52e29e81180ccf10385ca1bea79315ebd"},
	{"id=E18", "edd57ab89665acc81e327b3ce38f4e6d4c7baadf867fac7f324a242a6dc5b9d5"},
	{"id=E19", "a09eb8946ade79a78769db4942ab960f5d302adefc771b0b704db5a4049892ed"},
	{"id=E20", "8f133b5b62611ec5bd20f3a7057e27a471692082c2165f68bee64717eac3c7aa"},
	{"id=E21", "21a562130c27aca4334c2b3ada440234dabcefa6489935c66d4198f626918271"},
	{"id=E22", "f509ca8404181361e8691ad4b8bc9451e39ff6d13b4cd7bc084b32a6731c8ecf"},
	{"id=ethno-reflection", "53b6ca80a1b09d92e02841cbaa827bc7e8e2c45a303ffc097adc953dbacaa5c3"},
	{"id=ethno-reflection&gains=0.1,0.2", "cc323a49d70338e46ddfd93aa390be65c78732c530c24a1f2cc7589fe0cd24a5"},
	{"id=ethno-triangulation", "fa1c1013b1aca8ac664146bef34cd88421c3a5fb2266587b2c9df952cacf3b8b"},
	{"id=ethno-triangulation&notes=61,140", "cdfca87761f735e7dc32d12d872ef28d94ec52435cd92d2cdc440f73234cebb7"},
	{"id=ethno-triangulation&events=0", "d4eba0cba47e4095a932a448bdb195f81cb6e7ff2d9edc8f5433a6664a415677"},
	{"id=cn-gateway", "e324a13b77227b7d54f3c4f468efee14e9fb52452ac539c50b121231a06f2af5"},
	{"id=cn-gateway&nodes=20", "4767012263c64e90be9470125113ab17ce01a80d1c5b27e6f0a653d0667e5fdc"},
}

// TestRunBodyGoldenAtEveryWorkerCount is the determinism contract on the
// real registry: every golden query gives its committed hash at
// ScenarioWorkers 1, 2 and 4, then cold and warm through a disk cache.
func TestRunBodyGoldenAtEveryWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkRunBodies(t, &experiment.Runner{Workers: 1, ScenarioWorkers: workers})
		})
	}
	cache, err := experiment.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &experiment.Runner{Workers: 1, ScenarioWorkers: 2, Cache: cache}
	n := int64(len(runBodyGolden))
	t.Run("cold", func(t *testing.T) { checkRunBodies(t, r) })
	t.Run("warm", func(t *testing.T) { checkRunBodies(t, r) })
	if st := r.Stats(); st.Misses != n || st.Hits != n {
		t.Errorf("cache stats %+v, want %d misses then %d hits", st, n, n)
	}
}

// checkRunBodies runs every runBodyGolden query through r and requires the
// committed hash of each /run body.
func checkRunBodies(t *testing.T, r *experiment.Runner) {
	for _, tc := range runBodyGolden {
		t.Run(tc.query, func(t *testing.T) {
			job, err := experiment.Default.ParseJob(mustQuery(t, tc.query))
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunOne(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			body, err := experiment.RenderOneJSON(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("/run body sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}
