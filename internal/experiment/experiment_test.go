package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/url"
	"strings"
	"testing"

	"repro/internal/rng"
)

// synthDef returns a cheap, fully deterministic scenario for harness tests:
// its single table is a pure function of (params, seed), so two runs agree
// bit-exactly and different inputs disagree.
func synthDef(id string) Def {
	return Def{
		ID:    id,
		Title: "synthetic " + id,
		Claim: "harness test scenario",
		Seed:  7,
		Params: Schema{
			{Name: "rows", Kind: Int, Default: 4, Doc: "table rows"},
			{Name: "scale", Kind: Float, Default: 1.5, Doc: "value scale"},
			{Name: "label", Kind: String, Default: "x", Doc: "row label"},
		},
		Run: func(ctx context.Context, p Values, seed uint64) (*Result, error) {
			res := &Result{}
			tb := res.AddTable(id, "synthetic", "label", "n", "value")
			r := rng.New(seed)
			for i := 0; i < p.Int("rows"); i++ {
				tb.AddRow(
					fmt.Sprintf("%s%d", p.String("label"), i),
					I(i),
					F3(p.Float("scale")*r.Float64()),
				)
			}
			return res, nil
		},
	}
}

func TestRegistryRejectsDuplicatesAndInvalidDefs(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(synthDef("T1")); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := r.Register(synthDef("T1")); err == nil {
		t.Fatal("duplicate ID registered without error")
	}
	if err := r.Register(Def{Title: "no id", Run: synthDef("x").Run}); err == nil {
		t.Fatal("empty-ID Def registered without error")
	}
	if err := r.Register(Def{ID: "T2"}); err == nil {
		t.Fatal("Run-less Def registered without error")
	}
	bad := synthDef("T3")
	bad.Params = append(Schema{}, bad.Params...)
	bad.Params[0].Default = "four" // Int spec with a string default
	if err := r.Register(bad); err == nil {
		t.Fatal("Def with mistyped param default registered without error")
	}
}

func TestRegistryOrdering(t *testing.T) {
	r := NewRegistry()
	// Registered deliberately out of order; All must sort E-numbered IDs
	// numerically (E2 before E10), suffixes as tie-breaks, and auxiliary
	// names after all E-numbers, alphabetically.
	for _, id := range []string{"zz-aux", "E10", "E2b", "E1", "E2", "aa-aux"} {
		d := synthDef(id)
		if id == "zz-aux" || id == "aa-aux" {
			d.Aux = true
		}
		if err := r.Register(d); err != nil {
			t.Fatalf("Register(%s): %v", id, err)
		}
	}
	var got []string
	for _, s := range r.All() {
		got = append(got, s.ID())
	}
	want := []string{"E1", "E2", "E2b", "E10", "aa-aux", "zz-aux"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("All() order = %v, want %v", got, want)
	}

	var report []string
	for _, s := range r.Report() {
		report = append(report, s.ID())
	}
	wantReport := []string{"E1", "E2", "E2b", "E10"}
	if strings.Join(report, ",") != strings.Join(wantReport, ",") {
		t.Fatalf("Report() = %v, want %v (aux scenarios must be excluded)", report, wantReport)
	}
	if !r.IsAux("zz-aux") || r.IsAux("E1") {
		t.Fatal("IsAux misclassifies scenarios")
	}
}

func TestDefaultRegistryHasUniqueOrderedIDs(t *testing.T) {
	// The Default registry enforces uniqueness at Register time; here we
	// check the ordering invariant over whatever the linked packages added.
	all := All()
	for i := 1; i < len(all); i++ {
		if !idLess(all[i-1].ID(), all[i].ID()) {
			t.Fatalf("All() not strictly ordered: %q before %q", all[i-1].ID(), all[i].ID())
		}
	}
}

func TestSchemaValidateRejectsUnknownAndMistyped(t *testing.T) {
	sch := synthDef("T").Params

	if err := sch.Validate(Values{"rows": 3}); err != nil {
		t.Fatalf("valid override rejected: %v", err)
	}
	if err := sch.Validate(Values{"bogus": 1}); err == nil {
		t.Fatal("unknown param accepted")
	}
	if err := sch.Validate(Values{"rows": "three"}); err == nil {
		t.Fatal("string value accepted for Int param")
	}
	if err := sch.Validate(Values{"scale": 2}); err == nil {
		t.Fatal("int value accepted for Float param")
	}

	merged, err := sch.Merge(Values{"rows": 2})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if merged.Int("rows") != 2 || merged.Float("scale") != 1.5 || merged.String("label") != "x" {
		t.Fatalf("Merge did not overlay defaults correctly: %v", merged)
	}
}

// TestSpecBounds: a declared range is checked on every path a value takes
// — the default at registration, ParseJob, and Validate/Merge under
// RunOne — and a violation wraps ErrBadParam and names the param, the value
// and the range. Bounds on a non-Int param do not register.
func TestSpecBounds(t *testing.T) {
	bounded := synthDef("B")
	bounded.Params = append(Schema{}, bounded.Params...)
	bounded.Params[0].Min, bounded.Params[0].Max = Bound(1), Bound(8)
	reg := NewRegistry()
	if err := reg.Register(bounded); err != nil {
		t.Fatal(err)
	}

	for _, rows := range []string{"1", "8"} {
		if _, err := reg.ParseJob(url.Values{"id": {"B"}, "rows": {rows}}); err != nil {
			t.Errorf("rows=%s at the bound rejected: %v", rows, err)
		}
	}
	for _, rows := range []string{"0", "9"} {
		_, err := reg.ParseJob(url.Values{"id": {"B"}, "rows": {rows}})
		if want := `bad param "rows" = ` + rows + `, want in [1, 8]`; !errors.Is(err, ErrBadParam) || err.Error() != want {
			t.Errorf("rows=%s: err = %v, want %q wrapping ErrBadParam", rows, err, want)
		}
	}
	if _, err := (&Runner{}).RunOne(context.Background(), Job{Scenario: def{bounded}, Params: Values{"rows": 9}, Seed: 1}); !errors.Is(err, ErrBadParam) {
		t.Errorf("RunOne with rows=9: err = %v, want ErrBadParam", err)
	}
	if _, err := reg.ParseJob(url.Values{"id": {"B"}, "rows": {"many"}}); !errors.Is(err, ErrBadParam) {
		t.Errorf("rows=many: err = %v, want ErrBadParam", err)
	}

	for name, mutate := range map[string]func(Schema){
		"default outside its range": func(sch Schema) { sch[0].Min = Bound(5); sch[0].Default = 4 },
		"bound on a Float":          func(sch Schema) { sch[1].Max = Bound(2) },
	} {
		bad := synthDef("X")
		bad.Params = append(Schema{}, bad.Params...)
		mutate(bad.Params)
		if err := NewRegistry().Register(bad); err == nil {
			t.Errorf("%s: registered without error", name)
		}
	}

	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Min: Bound(1), Max: Bound(64)}, "in [1, 64]"},
		{Spec{Min: Bound(41)}, "at least 41"},
		{Spec{Max: Bound(9)}, "at most 9"},
		{Spec{}, ""},
	} {
		if got := c.spec.rangeText(); got != c.want {
			t.Errorf("rangeText() = %q, want %q", got, c.want)
		}
	}
}

func TestValuesCanonicalIsSorted(t *testing.T) {
	v := Values{"b": 2, "a": 1.5, "c": "z"}
	want := "1:a=3:1.5\n1:b=1:2\n1:c=1:z\n"
	if got := v.Canonical(); got != want {
		t.Fatalf("Canonical() = %q, want %q", got, want)
	}
}

func TestSpecParseRoundTrips(t *testing.T) {
	cases := []struct {
		spec Spec
		text string
		want any
	}{
		{Spec{Name: "i", Kind: Int, Default: 0}, "-3", -3},
		{Spec{Name: "u", Kind: Uint, Default: uint64(0)}, "9", uint64(9)},
		{Spec{Name: "f", Kind: Float, Default: 0.0}, "0.25", 0.25},
		{Spec{Name: "s", Kind: String, Default: ""}, "hi", "hi"},
	}
	for _, c := range cases {
		got, err := c.spec.Parse(c.text)
		if err != nil {
			t.Fatalf("Parse(%q) as %s: %v", c.text, c.spec.Kind, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) as %s = %v, want %v", c.text, c.spec.Kind, got, c.want)
		}
		if back := FormatValue(got); back != c.text {
			t.Fatalf("FormatValue(%v) = %q, want round-trip %q", got, back, c.text)
		}
	}
	if _, err := (Spec{Name: "i", Kind: Int, Default: 0}).Parse("x"); err == nil {
		t.Fatal("Parse accepted garbage int")
	}
}

func TestRunnerStampsIdentityAndOrder(t *testing.T) {
	jobs := []Job{
		{Scenario: def{synthDef("T2")}, Seed: 11},
		{Scenario: def{synthDef("T1")}, Params: Values{"rows": 2}, Seed: 5},
	}
	r := &Runner{Workers: 2}
	results, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 2 || results[0].ID != "T2" || results[1].ID != "T1" {
		t.Fatalf("results not in job order: %+v", results)
	}
	res := results[1]
	if res.Title != "synthetic T1" || res.Claim == "" || res.Seed != 5 {
		t.Fatalf("identity fields not stamped: %+v", res)
	}
	if res.Params["rows"] != "2" || res.Params["scale"] != "1.5" || res.Params["label"] != "x" {
		t.Fatalf("params not recorded as formatted defaults+overrides: %v", res.Params)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 2 {
		t.Fatalf("unexpected table shape: %+v", res.Tables)
	}
}

func TestRunnerErrors(t *testing.T) {
	boom := Def{
		ID: "boom", Title: "boom", Seed: 1,
		Run: func(context.Context, Values, uint64) (*Result, error) {
			return nil, fmt.Errorf("kaboom")
		},
	}
	r := &Runner{}
	if _, err := r.Run(context.Background(), []Job{{Scenario: def{boom}, Seed: 1}}); err == nil {
		t.Fatal("scenario error not propagated")
	}
	if _, err := r.RunOne(context.Background(), Job{}); err == nil {
		t.Fatal("nil scenario accepted")
	}
	if _, err := r.RunOne(context.Background(), Job{
		Scenario: def{synthDef("T")}, Params: Values{"bogus": 1},
	}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestRenderMarkdownShape(t *testing.T) {
	res, err := (&Runner{}).RunOne(context.Background(), NewJob(def{synthDef("T1")}))
	if err != nil {
		t.Fatal(err)
	}
	md := RenderMarkdown([]*Result{res})
	for _, want := range []string{
		"# humnet experiment report",
		"\n## T1 — synthetic\n",
		"| label | n | value |",
		"| --- | --- | --- |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("RenderMarkdown missing %q in:\n%s", want, md)
		}
	}
}

// TestParamsReturnsACopy pins the aliasret remediation: mutating the schema
// a Scenario hands out must not corrupt the registered definition.
func TestParamsReturnsACopy(t *testing.T) {
	d := synthDef("copy-check")
	d.Params = append(Schema{}, d.Params...)
	d.Params[0].Min = Bound(1)
	s := def{d: d}
	got := s.Params()
	if len(got) == 0 {
		t.Fatal("empty schema")
	}
	got[0].Name = "mutated"
	got[0].Default = -1
	*got[0].Min = 9
	if again := s.Params(); again[0].Name != "rows" || again[0].Default != 4 || *again[0].Min != 1 {
		t.Errorf("registered schema was mutated through the returned copy: %+v", again[0])
	}
}

// TestUndefinedStatisticRendersNA: a NaN cell prints as n/a through every
// float formatter, so no accepted query prints NaN; finite values keep
// their text.
func TestUndefinedStatisticRendersNA(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct{ got, want string }{
		{F3(nan), "n/a"}, {FP(nan, 1), "n/a"}, {FSigned(nan, 3), "n/a"},
		{F3(0.25), "0.250"}, {FSigned(0.25, 2), "+0.25"}, {FSigned(-0.5, 1), "-0.5"},
	} {
		if c.got != c.want {
			t.Errorf("cell %q, want %q", c.got, c.want)
		}
	}
}
