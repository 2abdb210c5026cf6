package bgpsim

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// TestCellLayoutIsPointerFree pins the packed table layout: a cell and a
// path node are 8 bytes each and hold no pointer, so the garbage collector
// never traces the routing tables.
func TestCellLayoutIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 8 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(pathNode{}); got != 8 {
		t.Errorf("unsafe.Sizeof(pathNode{}) = %d, want 8", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(entry{}), reflect.TypeOf(pathNode{})} {
		if path, ok := findPointer(typ, typ.Name()); ok {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// findPointer walks typ and returns the access path of the first field
// whose representation contains a pointer.
func findPointer(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := findPointer(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Array:
		return findPointer(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return path, true
	default:
		return "", false
	}
}

// TestLinkFlapCyclesReclaimSlabs flaps links 200 times (Apply a link-down,
// then Revert it) and requires every column's slab to shrink back to its
// pre-Apply length and the state fingerprint to return each time: Revert
// reclaims the nodes Apply appended instead of leaking them.
func TestLinkFlapCyclesReclaimSlabs(t *testing.T) {
	h, err := BuildHierarchyOpts(rng.New(11), HierarchyOpts{NMid: 8, NStub: 24})
	if err != nil {
		t.Fatal(err)
	}
	c := convergeState(t, h.Topo, 1)
	slabLens := func() []int {
		out := make([]int, len(c.Tables().slabs))
		for i, s := range c.Tables().slabs {
			out[i] = len(s)
		}
		return out
	}
	baseLens, baseFP := slabLens(), c.StateFingerprint()

	var links []Delta
	for _, m := range h.Mids {
		for _, s := range h.Stubs {
			if h.Topo.HasProviderCustomer(m, s) {
				links = append(links, Delta{Kind: DeltaLinkDown, A: m, B: s})
			}
		}
	}
	if len(links) == 0 {
		t.Fatal("hierarchy has no mid→stub link to flap")
	}
	grew := false
	for cycle := 0; cycle < 200; cycle++ {
		p, err := c.Apply(links[cycle%len(links)])
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if !grew && !reflect.DeepEqual(slabLens(), baseLens) {
			grew = true
		}
		c.Revert(p)
		if got := slabLens(); !reflect.DeepEqual(got, baseLens) {
			t.Fatalf("cycle %d: slab lengths %v after revert, want %v", cycle, got, baseLens)
		}
		if fp := c.StateFingerprint(); fp != baseFP {
			t.Fatalf("cycle %d: fingerprint %#x after revert, want %#x", cycle, fp, baseFP)
		}
	}
	if !grew {
		t.Error("no flap appended a path node: the cycles never exercised slab reclamation")
	}
}
