package repro

import (
	"net/url"
	"os"
	"regexp"
	"testing"

	"repro/internal/experiment"
	_ "repro/internal/experiment/all"
)

// docQuery matches a `reportgen … -run '<query>'` invocation quoted on one
// line of a document, with the query as its one group.
var docQuery = regexp.MustCompile(`reportgen[^'\n]*?-run '([^']*)'`)

// TestDocQueriesParse: every reportgen -run query the user documents quote
// must parse, through the same ParseJob that reportgen -run and humnetd's
// /run use, so a reader who copies one gets a table, not an error.
// CHANGES.md is left out: it quotes refused queries on purpose.
func TestDocQueriesParse(t *testing.T) {
	seen := make(map[string]bool)
	for _, doc := range []string{"EXPERIMENTS.md", "README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		matches := docQuery.FindAllStringSubmatch(string(text), -1)
		if len(matches) == 0 {
			t.Errorf("%s quotes no reportgen -run query", doc)
		}
		for _, m := range matches {
			query := m[1]
			if seen[query] {
				continue
			}
			seen[query] = true
			q, err := url.ParseQuery(query)
			if err == nil {
				_, err = experiment.Default.ParseJob(q)
			}
			if err != nil {
				t.Errorf("%s: reportgen -run '%s': %v", doc, query, err)
			}
		}
	}
}
