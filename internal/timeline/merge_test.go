package timeline

// Table-driven tests for Merge's reconciliation semantics: exact duplicates
// collapse (except leak toggles, whose parity makes even duplicates a
// contradiction), and same-tick contradictory events fail with
// ErrStreamConflict instead of replaying into an order-dependent outcome.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bgpsim"
	"repro/internal/ixp"
)

func TestMergeConflictTable(t *testing.T) {
	ev := func(kind Kind, mut func(*Event)) Event {
		e := Event{At: 3, Kind: kind}
		if mut != nil {
			mut(&e)
		}
		return e
	}
	cases := []struct {
		name       string
		a, b       Event
		conflict   bool
		wantErr    string // substring of the conflict error, when set
		wantEvents int    // merged event count when no conflict
	}{
		{
			name:     "fail vs repair same node",
			a:        ev(KindCNFail, func(e *Event) { e.Node = 5 }),
			b:        ev(KindCNRepair, func(e *Event) { e.Node = 5 }),
			conflict: true,
		},
		{
			name:       "fail vs repair different nodes",
			a:          ev(KindCNFail, func(e *Event) { e.Node = 5 }),
			b:          ev(KindCNRepair, func(e *Event) { e.Node = 6 }),
			wantEvents: 2,
		},
		{
			name:       "fail vs repair same node different ticks",
			a:          Event{At: 3, Kind: KindCNFail, Node: 5},
			b:          Event{At: 4, Kind: KindCNRepair, Node: 5},
			wantEvents: 2,
		},
		{
			name:     "withdraw vs announce same origin same prefix",
			a:        Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaWithdraw, A: 10, Prefix: "p"}},
			b:        Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaAnnounce, A: 10, Prefix: "p"}},
			conflict: true,
		},
		{
			name:       "prefix migration between origins",
			a:          Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaWithdraw, A: 10, Prefix: "p"}},
			b:          Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaAnnounce, A: 11, Prefix: "p"}},
			wantEvents: 2,
		},
		{
			name:     "link up vs down same p2c edge",
			a:        Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLinkUp, A: 1, B: 2}},
			b:        Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLinkDown, A: 1, B: 2}},
			conflict: true,
		},
		{
			name:     "link up vs down same peer edge reversed orientation",
			a:        Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLinkUp, A: 1, B: 2, Peer: true}},
			b:        Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLinkDown, A: 2, B: 1, Peer: true}},
			conflict: true,
		},
		{
			name:       "link up vs down reversed p2c is a different edge",
			a:          Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLinkUp, A: 1, B: 2}},
			b:          Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLinkDown, A: 2, B: 1}},
			wantEvents: 2,
		},
		{
			name:     "two leak toggles same AS",
			a:        Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLeakToggle, A: 7}},
			b:        Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLeakToggle, A: 7}},
			conflict: true, // parity: duplicates are a contradiction, not a redundancy
		},
		{
			name:       "leak toggles of different ASes",
			a:          Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLeakToggle, A: 7}},
			b:          Event{At: 3, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaLeakToggle, A: 8}},
			wantEvents: 2,
		},
		{
			name:     "join vs leave same AS same exchange",
			a:        ev(KindIXPJoin, func(e *Event) { e.Name = "IX"; e.ASN = 9 }),
			b:        ev(KindIXPLeave, func(e *Event) { e.Name = "IX"; e.ASN = 9 }),
			conflict: true,
		},
		{
			name:     "join vs leave names both events in grammar form",
			a:        ev(KindIXPJoin, func(e *Event) { e.Name = "IXP-MX"; e.ASN = 1000; e.Policy = ixp.Open }),
			b:        ev(KindIXPLeave, func(e *Event) { e.Name = "IXP-MX"; e.ASN = 1000 }),
			conflict: true,
			wantErr:  "join IXP-MX 1000 open vs leave IXP-MX 1000",
		},
		{
			name:       "join vs leave different exchanges",
			a:          ev(KindIXPJoin, func(e *Event) { e.Name = "IX-A"; e.ASN = 9 }),
			b:          ev(KindIXPLeave, func(e *Event) { e.Name = "IX-B"; e.ASN = 9 }),
			wantEvents: 2,
		},
		{
			name:     "two demand sets with different values",
			a:        ev(KindCNDemand, func(e *Event) { e.Value = 2 }),
			b:        ev(KindCNDemand, func(e *Event) { e.Value = 3 }),
			conflict: true,
		},
		{
			name:       "identical demand sets dedup",
			a:          ev(KindCNDemand, func(e *Event) { e.Value = 2 }),
			b:          ev(KindCNDemand, func(e *Event) { e.Value = 2 }),
			wantEvents: 1,
		},
		{
			name:     "two stake shifts with different values",
			a:        ev(KindStakeShift, func(e *Event) { e.Value = 0.2 }),
			b:        ev(KindStakeShift, func(e *Event) { e.Value = -0.2 }),
			conflict: true,
		},
		{
			name:     "two regulations of different countries",
			a:        ev(KindRegulate, func(e *Event) { e.Name = "MX" }),
			b:        ev(KindRegulate, func(e *Event) { e.Name = "BR" }),
			conflict: true,
		},
		{
			name:       "identical regulations dedup",
			a:          ev(KindRegulate, func(e *Event) { e.Name = "MX" }),
			b:          ev(KindRegulate, func(e *Event) { e.Name = "MX" }),
			wantEvents: 1,
		},
		{
			name:       "exact duplicate fail dedups",
			a:          ev(KindCNFail, func(e *Event) { e.Node = 5 }),
			b:          ev(KindCNFail, func(e *Event) { e.Node = 5 }),
			wantEvents: 1,
		},
	}
	for _, tc := range cases {
		sa := Stream{Horizon: 6, Events: []Event{tc.a}}
		sb := Stream{Horizon: 6, Events: []Event{tc.b}}
		merged, err := Merge(sa, sb)
		if tc.conflict {
			if !errors.Is(err, ErrStreamConflict) {
				t.Errorf("%s: Merge error = %v, want ErrStreamConflict", tc.name, err)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: Merge error = %q, want it to name %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Merge failed: %v", tc.name, err)
			continue
		}
		if len(merged.Events) != tc.wantEvents {
			t.Errorf("%s: merged %d events, want %d", tc.name, len(merged.Events), tc.wantEvents)
		}
	}
	// Conflicts are found within one stream too: Merge canonicalizes the
	// union first, so a single stream carrying the contradiction fails the
	// same way.
	_, err := Merge(Stream{Horizon: 6, Events: []Event{
		{At: 2, Kind: KindCNFail, Node: 1},
		{At: 2, Kind: KindCNRepair, Node: 1},
	}})
	if !errors.Is(err, ErrStreamConflict) {
		t.Errorf("single-stream conflict not detected: %v", err)
	}
}
