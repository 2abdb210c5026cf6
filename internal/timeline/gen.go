package timeline

// Seeded stream generators. Each is a pure function of its arguments — all
// randomness flows from the explicit seed through internal/rng — and returns
// a canonical stream whose events are guaranteed applicable in canonical
// order (flaps never overlap on one link, migrations track the live prefix
// holder, churn never double-fails a member), so generated streams replay
// without error and round-trip through the text format.

import (
	"fmt"

	"repro/internal/bgpsim"
	"repro/internal/ixp"
	"repro/internal/rng"
)

// genAttempts bounds the retries when sampling a flap/migration target whose
// resources are busy; a slot that stays busy is skipped, never blocks.
const genAttempts = 8

// GenFlapStorm generates a link/prefix flap storm over a hierarchy: perTick
// flap attempts per tick, each taking a random stub's provider link down (or
// its prefix withdrawn) at tick t and restoring it at t+hold. Flaps whose
// restore would land at or past the horizon are skipped, so the stream is
// net-zero: the final tick's topology equals the initial one.
func GenFlapStorm(h *bgpsim.Hierarchy, seed uint64, ticks, perTick, hold int) (Stream, error) {
	if ticks < 1 || ticks > MaxHorizon {
		return Stream{}, fmt.Errorf("timeline: ticks %d outside [1, %d]", ticks, MaxHorizon)
	}
	if perTick < 0 || hold < 1 {
		return Stream{}, fmt.Errorf("timeline: bad flap storm shape (per-tick %d, hold %d)", perTick, hold)
	}
	if perTick > MaxEvents/(2*ticks) { // 2·ticks·perTick, which could overflow
		return Stream{}, fmt.Errorf("timeline: up to 2·%d·%d events exceed limit %d", ticks, perTick, MaxEvents)
	}
	if len(h.Stubs) == 0 {
		return Stream{}, fmt.Errorf("timeline: hierarchy has no stubs to flap")
	}
	origin := make(map[bgpsim.ASN]bool, len(h.OriginStubs))
	for _, n := range h.OriginStubs {
		origin[n] = true
	}
	r := rng.New(seed)
	type link struct{ p, c bgpsim.ASN }
	linkBusy := make(map[link]int) // busy through this tick
	pfxBusy := make(map[bgpsim.ASN]int)
	var evs []Event
	for t := 0; t < ticks; t++ {
		for k := 0; k < perTick; k++ {
			if t+hold >= ticks {
				continue
			}
			for attempt := 0; attempt < genAttempts; attempt++ {
				stub := h.Stubs[r.Intn(len(h.Stubs))]
				if r.Bool(0.5) {
					provs := h.Topo.Providers(stub)
					if len(provs) == 0 {
						continue
					}
					p := provs[r.Intn(len(provs))]
					key := link{p, stub}
					if until, busy := linkBusy[key]; busy && t <= until {
						continue
					}
					linkBusy[key] = t + hold
					down := bgpsim.Delta{Kind: bgpsim.DeltaLinkDown, A: p, B: stub}
					up := bgpsim.Delta{Kind: bgpsim.DeltaLinkUp, A: p, B: stub}
					evs = append(evs,
						Event{At: t, Kind: KindBGP, Delta: down},
						Event{At: t + hold, Kind: KindBGP, Delta: up})
				} else {
					if !origin[stub] {
						continue
					}
					if until, busy := pfxBusy[stub]; busy && t <= until {
						continue
					}
					pfxBusy[stub] = t + hold
					pfx := fmt.Sprintf("pfx-%d", stub)
					evs = append(evs,
						Event{At: t, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaWithdraw, A: stub, Prefix: pfx}},
						Event{At: t + hold, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaAnnounce, A: stub, Prefix: pfx}})
				}
				break
			}
		}
	}
	return Stream{Horizon: ticks, Events: evs}.Canonicalize(), nil
}

// GenPrefixMigration models an incumbent re-juggling prefixes across ASNs:
// every `every` ticks, one originated prefix moves from its current holder
// to a random other stub — a same-tick withdraw+announce pair, applied
// withdraw-first by the canonical event order.
func GenPrefixMigration(h *bgpsim.Hierarchy, seed uint64, ticks, every int) (Stream, error) {
	if ticks < 1 || ticks > MaxHorizon || every < 1 {
		return Stream{}, fmt.Errorf("timeline: bad migration shape (ticks %d, every %d)", ticks, every)
	}
	if len(h.OriginStubs) == 0 || len(h.Stubs) < 2 {
		return Stream{}, fmt.Errorf("timeline: hierarchy too small to migrate prefixes")
	}
	holder := make([]bgpsim.ASN, len(h.OriginStubs))
	copy(holder, h.OriginStubs)
	r := rng.New(seed)
	var evs []Event
	for t := every; t < ticks; t += every {
		if len(evs)+2 > MaxEvents {
			break
		}
		i := r.Intn(len(holder))
		pfx := fmt.Sprintf("pfx-%d", h.OriginStubs[i])
		for attempt := 0; attempt < genAttempts; attempt++ {
			next := h.Stubs[r.Intn(len(h.Stubs))]
			if next == holder[i] {
				continue
			}
			evs = append(evs,
				Event{At: t, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaWithdraw, A: holder[i], Prefix: pfx}},
				Event{At: t, Kind: KindBGP, Delta: bgpsim.Delta{Kind: bgpsim.DeltaAnnounce, A: next, Prefix: pfx}})
			holder[i] = next
			break
		}
	}
	return Stream{Horizon: ticks, Events: evs}.Canonicalize(), nil
}

// GenCNChurn generates member fail/repair churn: each up member fails with
// failProb per tick and is repaired repairAfter ticks later (members whose
// repair would land past the horizon stay down). A member repaired at tick t
// is never re-failed at t — the canonical order applies fails before
// repairs, so a same-tick fail of a just-repaired (still down) member could
// not replay.
func GenCNChurn(members int, seed uint64, ticks int, failProb float64, repairAfter int) (Stream, error) {
	if members < 1 || ticks < 1 || ticks > MaxHorizon || repairAfter < 1 {
		return Stream{}, fmt.Errorf("timeline: bad churn shape (members %d, ticks %d, repair-after %d)", members, ticks, repairAfter)
	}
	if failProb < 0 || failProb > 1 {
		return Stream{}, fmt.Errorf("timeline: fail probability %v outside [0, 1]", failProb)
	}
	r := rng.New(seed)
	up := make([]bool, members)
	repairAt := make([]int, members)
	for m := range up {
		up[m] = true
		repairAt[m] = -1
	}
	var evs []Event
	pending := 0 // repairs scheduled and not yet emitted
	for t := 0; t < ticks; t++ {
		repaired := make([]bool, members)
		for m := 0; m < members; m++ {
			if repairAt[m] == t {
				evs = append(evs, Event{At: t, Kind: KindCNRepair, Node: m})
				up[m], repairAt[m], repaired[m] = true, -1, true
				pending--
			}
		}
		for m := 0; m < members; m++ {
			if !up[m] || repaired[m] || !r.Bool(failProb) {
				continue
			}
			// A fail takes its own slot and its repair's: the stream's
			// scheduled repairs must fit the event limit too.
			repair := t+repairAfter < ticks
			need := 1
			if repair {
				need = 2
			}
			if len(evs)+pending+need > MaxEvents {
				break
			}
			evs = append(evs, Event{At: t, Kind: KindCNFail, Node: m})
			up[m] = false
			if repair {
				repairAt[m] = t + repairAfter
				pending++
			}
		}
	}
	return Stream{Horizon: ticks, Events: evs}.Canonicalize(), nil
}

// GenStagedRollout schedules IXP joins in waves: members join ixpName in a
// seed-shuffled order, waveSize at a time, a wave every waveEvery ticks
// starting at startAt. Members whose wave lands at or past the horizon never
// join (the staged rollout simply hasn't reached them).
func GenStagedRollout(ixpName string, members []bgpsim.ASN, policy ixp.PeeringPolicy, seed uint64, startAt, waveEvery, waveSize, ticks int) (Stream, error) {
	if ticks < 1 || ticks > MaxHorizon || startAt < 0 || waveEvery < 1 || waveSize < 1 {
		return Stream{}, fmt.Errorf("timeline: bad rollout shape (start %d, wave-every %d, wave-size %d, ticks %d)", startAt, waveEvery, waveSize, ticks)
	}
	if len(members) > MaxEvents {
		return Stream{}, fmt.Errorf("timeline: %d members exceed event limit %d", len(members), MaxEvents)
	}
	r := rng.New(seed)
	order := r.Perm(len(members))
	var evs []Event
	for i, idx := range order {
		t := startAt + (i/waveSize)*waveEvery
		if t >= ticks {
			break
		}
		evs = append(evs, Event{At: t, Kind: KindIXPJoin, Name: ixpName, ASN: members[idx], Policy: policy})
	}
	return Stream{Horizon: ticks, Events: evs}.Canonicalize(), nil
}
