package analysis

import (
	"reflect"
	"testing"
)

func TestSummariesCtxFacts(t *testing.T) {
	_, pkg := loadFixture(t, "ctxflow", false)
	facts := BuildFacts([]*Package{pkg})
	prefix := pkg.Path + "."

	waits := facts.Lookup(prefix + "waitCtx")
	if waits == nil {
		t.Fatal("no summary for waitCtx")
	}
	// Direct ambient blocker: passes a literal Background to waitCtx.
	if !facts.AmbientBlocker(prefix + "blockAmbient") {
		t.Error("blockAmbient not marked as ambient blocker")
	}
	// Transitive: the merge fixpoint must carry the mark one frame up.
	if !facts.AmbientBlocker(prefix + "blockTransitive") {
		t.Error("blockTransitive not marked as ambient blocker (fixpoint broken)")
	}
	// Forwarding its own context does not make a function ambient.
	if facts.AmbientBlocker(prefix + "Forward") {
		t.Error("Forward forwards ctx but is marked ambient")
	}
	if facts.AmbientBlocker(prefix + "pure") {
		t.Error("pure never blocks but is marked ambient")
	}
}

func TestSummariesAliasAndAtomicFacts(t *testing.T) {
	_, aliasPkg := loadFixture(t, "aliasret", false)
	facts := BuildFacts([]*Package{aliasPkg})
	view := facts.Lookup(aliasPkg.Path + ".view")
	if view == nil {
		t.Fatal("no summary for view")
	}
	want := []string{"var.registry"}
	if got := view.AliasReturns[0]; !reflect.DeepEqual(got, want) {
		t.Errorf("view.AliasReturns[0] = %v, want %v", got, want)
	}

	_, atomicPkg := loadFixture(t, "atomicmix", false)
	afacts := BuildFacts([]*Package{atomicPkg})
	if !afacts.AtomicField(atomicPkg.Path + ".counter.n") {
		t.Error("counter.n not in the atomic field set")
	}
	if afacts.AtomicField(atomicPkg.Path + ".counter.name") {
		t.Error("counter.name wrongly in the atomic field set")
	}
	if !afacts.AtomicField("var." + atomicPkg.Path + ".hits") {
		t.Error("package var hits not in the atomic field set")
	}
}

func TestReachableFollowsCallGraph(t *testing.T) {
	_, pkg := loadFixture(t, "undoscope", false)
	facts := BuildFacts([]*Package{pkg})
	prefix := pkg.Path + "."
	reach := facts.Reachable([]string{prefix + "Apply", prefix + "Revert"})
	for _, id := range []string{"Apply", "Revert", "record"} {
		if !reach[prefix+id] {
			t.Errorf("%s not reachable from the roots", id)
		}
	}
	for _, id := range []string{"Rogue", "Bump", "Seed"} {
		if reach[prefix+id] {
			t.Errorf("%s wrongly reachable from the roots", id)
		}
	}
}
