package qualcode

import (
	"fmt"
)

// Memo is an analytic note — the grounded-theory practice of writing down
// emerging interpretations and linking them to the codes and segments that
// prompted them. Memos are how "informal, personal, and ad-hoc" insight
// (§5.2) is kept analyzable instead of lost.
type Memo struct {
	ID     int
	Author string
	Text   string
	// Codes this memo interprets (must exist in the codebook).
	Codes []string
	// Segments this memo cites, as (DocID, SegmentID) pairs.
	Segments []SegmentRef
}

// SegmentRef points at one segment.
type SegmentRef struct {
	DocID     string
	SegmentID int
}

// AddMemo validates and stores a memo, returning its assigned ID.
func (p *Project) AddMemo(m Memo) (int, error) {
	if m.Author == "" || m.Text == "" {
		return 0, fmt.Errorf("qualcode: memo needs an author and text")
	}
	for _, c := range m.Codes {
		if !p.Codebook.Has(c) {
			return 0, fmt.Errorf("%w: %s in memo", ErrUnknownCode, c)
		}
	}
	for _, ref := range m.Segments {
		d, ok := p.docs[ref.DocID]
		if !ok {
			return 0, fmt.Errorf("qualcode: memo cites unknown document %s", ref.DocID)
		}
		found := false
		for _, s := range d.Segments {
			if s.ID == ref.SegmentID {
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("qualcode: memo cites unknown segment %s/%d", ref.DocID, ref.SegmentID)
		}
	}
	m.ID = len(p.memos)
	p.memos = append(p.memos, m)
	return m.ID, nil
}

// Memos returns all memos, optionally filtered to those touching codeID
// ("" for all).
func (p *Project) Memos(codeID string) []Memo {
	var out []Memo
	for _, m := range p.memos {
		if codeID == "" {
			out = append(out, m)
			continue
		}
		for _, c := range m.Codes {
			if c == codeID {
				out = append(out, m)
				break
			}
		}
	}
	return out
}
