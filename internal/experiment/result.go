package experiment

import (
	"fmt"
	"math"
	"strconv"
)

// I formats an int cell.
func I(v int) string { return strconv.Itoa(v) }

// I64 formats an int64 cell.
func I64(v int64) string { return strconv.FormatInt(v, 10) }

// F3 formats a float cell with three fixed decimals — the repo's default
// precision for shares and rates.
func F3(v float64) string { return FP(v, 3) }

// FP formats a float cell with prec fixed decimals, or an undefined one
// (NaN) as naCell.
func FP(v float64, prec int) string {
	if math.IsNaN(v) {
		return naCell
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// FSigned formats a float cell with prec fixed decimals and a forced sign
// (E8's bias column), or an undefined one (NaN) as naCell.
func FSigned(v float64, prec int) string {
	if math.IsNaN(v) {
		return naCell
	}
	return fmt.Sprintf("%+.*f", prec, v)
}

// naCell is the one rendering of an undefined statistic: E8's bias of a
// design that reached no respondent, or the degree assortativity of a
// co-authorship graph whose degrees do not vary.
const naCell = "n/a"

// Table is one rendered section of an experiment: an ID ("E1", "E2b"), a
// title, ordered columns, and rows of cells. A cell is the text every
// renderer prints, fixed when its row is added.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends one row. The cell count must match the column count; a
// mismatch is a scenario programming error and panics with the table ID.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiment: table %s row has %d cells for %d columns", t.ID, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Result is a scenario execution's complete, renderable output. ID, Title,
// Claim, Seed, and Params are stamped by the Runner so scenarios only build
// Tables. It has one JSON shape, which the on-disk cache entry holds
// compact (Cache.Put) and the /run body indented (RenderOneJSON).
type Result struct {
	ID     string            `json:"id"`
	Title  string            `json:"title"`
	Claim  string            `json:"claim,omitempty"`
	Seed   uint64            `json:"seed"`
	Params map[string]string `json:"params,omitempty"`
	Tables []*Table          `json:"tables"`
}

// AddTable appends an empty table with the given identity and columns and
// returns it for row-filling. Rows starts non-nil, so a table that never
// gets a row still encodes as [] and not null.
func (r *Result) AddTable(id, title string, columns ...string) *Table {
	t := &Table{ID: id, Title: title, Columns: columns, Rows: [][]string{}}
	r.Tables = append(r.Tables, t)
	return t
}
