package qualcode

import "testing"

func TestAddMemoValidation(t *testing.T) {
	p := newTestProject(t)
	if _, err := p.AddMemo(Memo{Text: "t"}); err == nil {
		t.Error("authorless memo accepted")
	}
	if _, err := p.AddMemo(Memo{Author: "a"}); err == nil {
		t.Error("textless memo accepted")
	}
	if _, err := p.AddMemo(Memo{Author: "a", Text: "t", Codes: []string{"ghost"}}); err == nil {
		t.Error("unknown code accepted")
	}
	if _, err := p.AddMemo(Memo{Author: "a", Text: "t", Segments: []SegmentRef{{DocID: "nope", SegmentID: 0}}}); err == nil {
		t.Error("unknown document accepted")
	}
	if _, err := p.AddMemo(Memo{Author: "a", Text: "t", Segments: []SegmentRef{{DocID: "d1", SegmentID: 99}}}); err == nil {
		t.Error("unknown segment accepted")
	}
}

func TestMemosFilteredByCode(t *testing.T) {
	p := newTestProject(t)
	id0, err := p.AddMemo(Memo{Author: "a", Text: "about x", Codes: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddMemo(Memo{Author: "a", Text: "about y", Codes: []string{"y"}}); err != nil {
		t.Fatal(err)
	}
	if id0 != 0 {
		t.Errorf("first memo ID = %d", id0)
	}
	if got := p.Memos(""); len(got) != 2 {
		t.Errorf("all memos = %d", len(got))
	}
	got := p.Memos("x")
	if len(got) != 1 || got[0].Text != "about x" {
		t.Errorf("x memos = %+v", got)
	}
	if got := p.Memos("z"); len(got) != 0 {
		t.Errorf("z memos = %+v", got)
	}
}
