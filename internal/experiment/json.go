package experiment

import "encoding/json"

// RenderJSON renders results as an indented JSON array. encoding/json sorts
// map keys, so equal results render to equal bytes.
func RenderJSON(results []*Result) ([]byte, error) {
	if results == nil {
		results = []*Result{}
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RenderOneJSON renders a single result as an indented JSON object — the
// body humnetd's /run endpoint serves. Equal Results render to equal bytes,
// which is what makes served responses byte-identical across runs.
func RenderOneJSON(res *Result) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
