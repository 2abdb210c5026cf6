package qualcode

import (
	"fmt"
	"sort"
)

// Segment is one coded unit of a transcript: a turn, sentence, or paragraph.
type Segment struct {
	ID      int
	Speaker string
	Text    string
}

// Document is one transcript (interview, field-note file, meeting record).
type Document struct {
	ID       string
	Title    string
	Segments []Segment
}

// Annotation applies one code to one segment by one coder.
type Annotation struct {
	DocID     string
	SegmentID int
	CodeID    string
	Coder     string
}

// Project binds a codebook, a document corpus, and the annotations made
// against them. It validates referential integrity on every mutation.
type Project struct {
	Codebook *Codebook
	docs     map[string]*Document
	anns     []Annotation
	memos    []Memo
	// index: doc → segment → coder → set of codes
	index map[string]map[int]map[string]map[string]bool
}

// NewProject returns a project over the given codebook.
func NewProject(cb *Codebook) *Project {
	return &Project{
		Codebook: cb,
		docs:     make(map[string]*Document),
		index:    make(map[string]map[int]map[string]map[string]bool),
	}
}

// AddDocument registers a transcript. Segment IDs must be unique within the
// document.
func (p *Project) AddDocument(d Document) error {
	if d.ID == "" {
		return fmt.Errorf("qualcode: document needs an ID")
	}
	if _, ok := p.docs[d.ID]; ok {
		return fmt.Errorf("qualcode: duplicate document %s", d.ID)
	}
	seen := make(map[int]bool, len(d.Segments))
	for _, s := range d.Segments {
		if seen[s.ID] {
			return fmt.Errorf("qualcode: duplicate segment %d in %s", s.ID, d.ID)
		}
		seen[s.ID] = true
	}
	cp := d
	cp.Segments = append([]Segment(nil), d.Segments...)
	p.docs[d.ID] = &cp
	return nil
}

// Document returns a transcript by ID.
func (p *Project) Document(id string) (Document, bool) {
	d, ok := p.docs[id]
	if !ok {
		return Document{}, false
	}
	return *d, true
}

// DocumentIDs returns all document IDs sorted.
func (p *Project) DocumentIDs() []string {
	out := make([]string, 0, len(p.docs))
	for id := range p.docs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Annotate applies a code to a segment. The document, segment, and code must
// exist. Re-applying an identical annotation is a no-op.
func (p *Project) Annotate(a Annotation) error {
	d, ok := p.docs[a.DocID]
	if !ok {
		return fmt.Errorf("qualcode: unknown document %s", a.DocID)
	}
	found := false
	for _, s := range d.Segments {
		if s.ID == a.SegmentID {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("qualcode: unknown segment %d in %s", a.SegmentID, a.DocID)
	}
	if !p.Codebook.Has(a.CodeID) {
		return fmt.Errorf("%w: %s", ErrUnknownCode, a.CodeID)
	}
	if a.Coder == "" {
		return fmt.Errorf("qualcode: annotation needs a coder")
	}
	segIdx, ok := p.index[a.DocID]
	if !ok {
		segIdx = make(map[int]map[string]map[string]bool)
		p.index[a.DocID] = segIdx
	}
	coderIdx, ok := segIdx[a.SegmentID]
	if !ok {
		coderIdx = make(map[string]map[string]bool)
		segIdx[a.SegmentID] = coderIdx
	}
	codes, ok := coderIdx[a.Coder]
	if !ok {
		codes = make(map[string]bool)
		coderIdx[a.Coder] = codes
	}
	if codes[a.CodeID] {
		return nil
	}
	codes[a.CodeID] = true
	p.anns = append(p.anns, a)
	return nil
}

// Annotations returns a copy of all annotations.
func (p *Project) Annotations() []Annotation {
	return append([]Annotation(nil), p.anns...)
}

// Coders returns every coder who annotated anything, sorted.
func (p *Project) Coders() []string {
	set := make(map[string]bool)
	for _, a := range p.anns {
		set[a.Coder] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// CodesFor returns the codes coder applied to the given segment, sorted.
func (p *Project) CodesFor(docID string, segID int, coder string) []string {
	codes := p.index[docID][segID][coder]
	out := make([]string, 0, len(codes))
	for c := range codes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// unit identifies one codable segment.
type unit struct {
	doc string
	seg int
}

// units returns every segment of every document, in deterministic order.
func (p *Project) units() []unit {
	docIDs := p.DocumentIDs()
	n := 0
	for _, docID := range docIDs {
		n += len(p.docs[docID].Segments)
	}
	out := make([]unit, 0, n)
	for _, docID := range docIDs {
		start := len(out)
		for _, s := range p.docs[docID].Segments {
			out = append(out, unit{doc: docID, seg: s.ID})
		}
		doc := out[start:]
		sort.Slice(doc, func(i, j int) bool { return doc[i].seg < doc[j].seg })
	}
	return out
}

// CodeCounts returns, for each code, the number of (segment, coder) pairs it
// was applied to.
func (p *Project) CodeCounts() map[string]int {
	out := make(map[string]int)
	for _, a := range p.anns {
		out[a.CodeID]++
	}
	return out
}
