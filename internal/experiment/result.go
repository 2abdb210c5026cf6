package experiment

import (
	"fmt"
	"strconv"
)

// CellKind discriminates the typed cell variants.
type CellKind string

const (
	CellString CellKind = "string"
	CellInt    CellKind = "int"
	CellFloat  CellKind = "float"
)

// Cell is one typed table value. The zero-value JSON omissions keep cached
// Results compact while preserving an exact round-trip: strings verbatim,
// ints as int64, floats as float64 (encoding/json emits the shortest
// representation that parses back bit-identically).
type Cell struct {
	Kind CellKind `json:"kind"`
	Str  string   `json:"str,omitempty"`
	Int  int64    `json:"int,omitempty"`
	F    float64  `json:"f,omitempty"`
	// Prec is the number of fixed decimals a float cell renders with.
	Prec int `json:"prec,omitempty"`
	// Plus forces an explicit sign on a float cell (E8's bias column).
	Plus bool `json:"plus,omitempty"`
}

// S builds a string cell.
func S(s string) Cell { return Cell{Kind: CellString, Str: s} }

// I builds an int cell.
func I(v int) Cell { return Cell{Kind: CellInt, Int: int64(v)} }

// I64 builds an int cell from an int64.
func I64(v int64) Cell { return Cell{Kind: CellInt, Int: v} }

// F3 builds a float cell with three fixed decimals — the repo's default
// precision for shares and rates.
func F3(v float64) Cell { return Cell{Kind: CellFloat, F: v, Prec: 3} }

// FP builds a float cell with prec fixed decimals.
func FP(v float64, prec int) Cell { return Cell{Kind: CellFloat, F: v, Prec: prec} }

// FSigned builds a float cell with prec fixed decimals and a forced sign.
func FSigned(v float64, prec int) Cell {
	return Cell{Kind: CellFloat, F: v, Prec: prec, Plus: true}
}

// Format renders the cell deterministically; every renderer goes through it.
func (c Cell) Format() string {
	switch c.Kind {
	case CellString:
		return c.Str
	case CellInt:
		return strconv.FormatInt(c.Int, 10)
	case CellFloat:
		if c.Plus {
			return fmt.Sprintf("%+.*f", c.Prec, c.F)
		}
		return fmt.Sprintf("%.*f", c.Prec, c.F)
	}
	return fmt.Sprintf("?%v", c.Kind)
}

// Table is one rendered section of an experiment: an ID ("E1", "E2b"), a
// title, ordered columns, and rows of typed cells.
type Table struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
}

// AddRow appends one row. The cell count must match the column count; a
// mismatch is a scenario programming error and panics with the table ID.
func (t *Table) AddRow(cells ...Cell) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiment: table %s row has %d cells for %d columns", t.ID, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Result is a scenario execution's complete, renderable output. ID, Title,
// Claim, Seed, and Params are stamped by the Runner so scenarios only build
// Tables; a Result survives a JSON round-trip (the on-disk cache) with
// bit-identical rendering.
type Result struct {
	ID     string            `json:"id"`
	Title  string            `json:"title"`
	Claim  string            `json:"claim,omitempty"`
	Seed   uint64            `json:"seed"`
	Params map[string]string `json:"params,omitempty"`
	Tables []*Table          `json:"tables"`
}

// AddTable appends an empty table with the given identity and columns and
// returns it for row-filling.
func (r *Result) AddTable(id, title string, columns ...string) *Table {
	t := &Table{ID: id, Title: title, Columns: columns}
	r.Tables = append(r.Tables, t)
	return t
}
