package bgpsim

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// TestCellLayoutIsPointerFree pins the packed table layout: a cell is one
// 4-byte int32 and a path node 12 bytes (hop, next, chain length), and
// neither holds a pointer, so the garbage collector never traces the
// routing tables. It pins the undo record sizes too: 8 bytes per logged
// cell and 20 per column that wrote.
func TestCellLayoutIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(entry(0)); got != 4 {
		t.Errorf("unsafe.Sizeof(entry(0)) = %d, want 4", got)
	}
	if got := unsafe.Sizeof(pathNode{}); got != 12 {
		t.Errorf("unsafe.Sizeof(pathNode{}) = %d, want 12", got)
	}
	if got := unsafe.Sizeof(undoCell{}); got != 8 {
		t.Errorf("unsafe.Sizeof(undoCell{}) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(patchCol{}); got != 20 {
		t.Errorf("unsafe.Sizeof(patchCol{}) = %d, want 20", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(entry(0)), reflect.TypeOf(pathNode{})} {
		if path, ok := findPointer(typ, typ.Name()); ok {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// cellsPacked checks the packed layout over e's tables: slot 0 of every
// slab is the empty chain, every node's cached plen equals the length of
// the chain it heads, walked hop by hop, and every routed cell's learned
// bits, bare or clothed, equal the rel of its AS's edge to its next hop
// (nodes[tail].as), or Origin when its tail is nilRef.
func cellsPacked(e *engine) error {
	nAS := len(e.rt.asns)
	for p := range e.rt.prefixes {
		nodes := e.rt.slabs[p]
		if nodes[nilRef] != (pathNode{}) {
			return fmt.Errorf("prefix %s: slot 0 holds %+v", e.rt.prefixes[p], nodes[nilRef])
		}
		for r := 1; r < len(nodes); r++ {
			n := int32(0)
			for h := int32(r); h != nilRef; h = nodes[h].next {
				n++
			}
			if nodes[r].plen != n {
				return fmt.Errorf("prefix %s: node %d caches plen %d, its chain has %d hops", e.rt.prefixes[p], r, nodes[r].plen, n)
			}
		}
		for i, en := range e.rt.entries[p*nAS : (p+1)*nAS] {
			if en == 0 {
				continue
			}
			want := Origin
			if t := tail(nodes, en); t != nilRef {
				k := e.edgeTo(int32(i), nodes[t].as)
				if k < 0 {
					return fmt.Errorf("prefix %s, AS %d: next hop %d is no neighbor", e.rt.prefixes[p], e.rt.asns[i], e.rt.asns[nodes[t].as])
				}
				want = e.nbr[i][k].rel
			}
			if en.learned() != want {
				return fmt.Errorf("prefix %s, AS %d: cell %d is %s-learned, its next hop gives %s", e.rt.prefixes[p], e.rt.asns[i], en, en.learned(), want)
			}
		}
	}
	return nil
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
	baseLens, baseFP := slabLens(c), c.StateFingerprint()

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
		if !grew && !reflect.DeepEqual(slabLens(c), baseLens) {
			grew = true
		}
		c.Revert(p)
		if got := slabLens(c); !reflect.DeepEqual(got, baseLens) {
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
