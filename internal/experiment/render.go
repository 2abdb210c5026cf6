package experiment

import (
	"fmt"
	"strings"
)

// reportHeader is the fixed preamble of the Markdown report; the byte-exact
// continuation of the pre-registry cmd/reportgen output.
const reportHeader = "# humnet experiment report\n\n" +
	"Generated by cmd/reportgen; every table is deterministic for the recorded seeds.\n"

// RenderMarkdown renders the full experiment report: the fixed header
// followed by every table of every result as a "## ID — Title" section.
// Equal results render to equal bytes.
func RenderMarkdown(results []*Result) string {
	var b strings.Builder
	b.WriteString(reportHeader)
	for _, res := range results {
		renderMarkdownResult(&b, res)
	}
	return b.String()
}

// renderMarkdownResult writes one result's sections.
func renderMarkdownResult(b *strings.Builder, res *Result) {
	for _, t := range res.Tables {
		fmt.Fprintf(b, "\n## %s — %s\n\n", t.ID, t.Title)
		fmt.Fprintf(b, "| %s |\n", strings.Join(t.Columns, " | "))
		sep := make([]string, len(t.Columns))
		for i := range sep {
			sep[i] = "---"
		}
		fmt.Fprintf(b, "| %s |\n", strings.Join(sep, " | "))
		for _, row := range t.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = c.Format()
			}
			fmt.Fprintf(b, "| %s |\n", strings.Join(cells, " | "))
		}
	}
}

// RenderList renders the -list view: every scenario with its seed, claim,
// and parameter schema (name, type, default, doc), in registry order. Each
// param prints as the /run query key it is set with: name=<type>.
func RenderList(scs []Scenario) string {
	var b strings.Builder
	for i, s := range scs {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s — %s (default seed %d)\n", s.ID(), s.Title(), s.DefaultSeed())
		if c := s.Claim(); c != "" {
			fmt.Fprintf(&b, "  claim: %s\n", c)
		}
		sch := s.Params()
		if len(sch) == 0 {
			b.WriteString("  params: none\n")
			continue
		}
		for _, spec := range sch {
			fmt.Fprintf(&b, "  %s=<%s> (default %s)\n      %s\n",
				spec.Name, spec.Kind, FormatValue(spec.Default), spec.Doc)
		}
	}
	return b.String()
}
