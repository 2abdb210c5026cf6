package experiment

import "encoding/json"

// jsonTable mirrors Table with formatted cells: consumers get the exact
// strings the Markdown renderer prints, so both renderers agree on
// the displayed values byte-for-byte.
type jsonTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// jsonResult mirrors Result for the -json renderer.
type jsonResult struct {
	ID     string            `json:"id"`
	Title  string            `json:"title"`
	Claim  string            `json:"claim,omitempty"`
	Seed   uint64            `json:"seed"`
	Params map[string]string `json:"params,omitempty"`
	Tables []jsonTable       `json:"tables"`
}

// jsonResultOf converts one Result to its formatted-cell JSON mirror.
func jsonResultOf(res *Result) jsonResult {
	jr := jsonResult{
		ID:     res.ID,
		Title:  res.Title,
		Claim:  res.Claim,
		Seed:   res.Seed,
		Params: res.Params,
		Tables: make([]jsonTable, len(res.Tables)),
	}
	for ti, t := range res.Tables {
		jt := jsonTable{
			ID:      t.ID,
			Title:   t.Title,
			Columns: t.Columns,
			Rows:    make([][]string, len(t.Rows)),
		}
		for ri, row := range t.Rows {
			cells := make([]string, len(row))
			for ci, c := range row {
				cells[ci] = c.Format()
			}
			jt.Rows[ri] = cells
		}
		jr.Tables[ti] = jt
	}
	return jr
}

// RenderJSON renders results as indented JSON with formatted cell strings.
// encoding/json sorts map keys, so equal results render to equal bytes.
func RenderJSON(results []*Result) ([]byte, error) {
	out := make([]jsonResult, len(results))
	for i, res := range results {
		out[i] = jsonResultOf(res)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RenderOneJSON renders a single result as an indented JSON object — the
// body humnetd's /run endpoint serves. Equal Results render to equal bytes,
// which is what makes served responses byte-identical across runs.
func RenderOneJSON(res *Result) ([]byte, error) {
	data, err := json.MarshalIndent(jsonResultOf(res), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
