package all

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestNoParamPanics probes every registered scenario one param at a time,
// the way a /run query can ask for it. A bounded Int param is probed at
// each declared bound, which ParseJob must accept, and just outside it,
// which ParseJob must reject with ErrBadParam; an unbounded Int is probed
// at 0 and -1 and a Uint at 0. Whatever ParseJob accepts must come back
// from the run as an error or as a result, never as a recovered panic: a
// panic reaches a /run client as a 500 with no word about which param was
// wrong.
func TestNoParamPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario about a dozen times; skipped under -short")
	}
	r := &experiment.Runner{Workers: 1, ScenarioWorkers: 2}
	for _, sc := range experiment.All() {
		for _, spec := range sc.Params() {
			var accept, reject []int
			switch {
			case spec.Kind == experiment.Uint:
				accept = []int{0}
			case spec.Kind != experiment.Int:
			case spec.Min == nil && spec.Max == nil:
				accept = []int{0, -1}
			default:
				if spec.Min != nil {
					accept, reject = append(accept, *spec.Min), append(reject, *spec.Min-1)
				}
				if spec.Max != nil {
					accept, reject = append(accept, *spec.Max), append(reject, *spec.Max+1)
				}
			}
			for _, v := range reject {
				query := fmt.Sprintf("id=%s&%s=%d", sc.ID(), spec.Name, v)
				if _, err := experiment.Default.ParseJob(mustQuery(t, query)); !errors.Is(err, experiment.ErrBadParam) {
					t.Errorf("%s: ParseJob err = %v, want ErrBadParam", query, err)
				}
			}
			for _, v := range accept {
				query := fmt.Sprintf("id=%s&%s=%d", sc.ID(), spec.Name, v)
				job, err := experiment.Default.ParseJob(mustQuery(t, query))
				if err != nil {
					t.Errorf("%s: ParseJob: %v", query, err)
					continue
				}
				if _, err := r.RunOne(context.Background(), job); err != nil && strings.Contains(err.Error(), "panicked") {
					t.Errorf("%s: %v", query, err)
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
// ParseJob turns min-1, 0 and -1 into a bad param before anything runs, not
// into an execution error after it. E11 `seats` and the visit counts had no
// domain check: below 1, `seats` gave a wrong table (the closed consortium's
// quota went negative and it ratified nothing) and the visit counts were
// clamped to one visit without a word, so the schema minimum is their only
// guard. The mesh studies' `members`/`nodes` feed TopoGapExperiment, which
// needs 8, and the community simulations need 2 members.
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
		{"E3", "members", 2}, {"E18", "members", 2}, {"E21", "members", 2},
	} {
		for _, v := range []int{param.min - 1, 0, -1} {
			query := fmt.Sprintf("id=%s&%s=%d", param.id, param.name, v)
			if _, err := experiment.Default.ParseJob(mustQuery(t, query)); !errors.Is(err, experiment.ErrBadParam) {
				t.Errorf("%s: ParseJob err = %v, want ErrBadParam", query, err)
			}
		}
	}
}

// TestMeshRadiusIsABadParam: a radius that is not positive links no two
// nodes (0, NaN) or is no radio range at all (negative), so both mesh studies
// refuse it as a bad param instead of failing inside BuildMesh or acting on
// its absolute value.
func TestMeshRadiusIsABadParam(t *testing.T) {
	r := &experiment.Runner{Workers: 1}
	for _, id := range []string{"cn-gateway", "cn-topology"} {
		for _, radius := range []string{"0", "-0.35", "NaN"} {
			query := fmt.Sprintf("id=%s&radius=%s", id, radius)
			job, err := experiment.Default.ParseJob(mustQuery(t, query))
			if err != nil {
				t.Fatalf("%s: ParseJob: %v", query, err)
			}
			if _, err := r.RunOne(context.Background(), job); !errors.Is(err, experiment.ErrBadParam) {
				t.Errorf("%s: RunOne err = %v, want ErrBadParam", query, err)
			}
		}
	}
}

// TestMeshScenariosAtSmallestSize runs every scenario that builds a
// community mesh at its smallest accepted member or node count over seeds
// 1..20: the smallest meshes draw the most disconnected placements, and each
// run must succeed or be refused as a bad param, never fail by chance.
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
			if _, err := r.RunOne(context.Background(), job); err != nil && !errors.Is(err, experiment.ErrBadParam) {
				t.Errorf("%s: %v", query, err)
			}
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
