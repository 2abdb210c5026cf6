// Command biblioscan is the corpus utility for external publication data:
// -classify labels one abstract, and -in analyzes a real corpus JSON
// (optionally re-exporting it with -export). Both take input from outside
// the repository, so neither is a registry scenario; the bibliometric
// scenarios (E5, E15, biblio-graph) run through reportgen, e.g.
// `reportgen -run 'id=biblio-graph&papers=800'`.
//
// Usage:
//
//	biblioscan -in corpus.json [-export copy.json]   # analyze a real corpus
//	biblioscan -classify "we conducted interviews with operators ..."
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/biblio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("biblioscan: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run implements the corpus I/O paths behind a single error-returning exit:
// classify one abstract, or load, summarize, and optionally re-export a real
// corpus.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("biblioscan", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	classify := fs.String("classify", "", "classify one abstract and exit")
	in := fs.String("in", "", "analyze this corpus JSON")
	export := fs.String("export", "", "write the analyzed corpus as JSON here")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *classify != "" {
		_, err := fmt.Fprintf(stdout, "method: %s\n", biblio.ClassifyAbstract(*classify))
		return err
	}
	if *in == "" {
		return errors.New("need -classify TEXT or -in corpus.json")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	c, err := biblio.ReadCorpus(f)
	cerr := f.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	if _, err := fmt.Fprintf(stdout, "loaded corpus: %d papers, %d authors\n", c.NumPapers(), c.NumAuthors()); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(stdout, "\nMethod mix per venue"); err != nil {
		return err
	}
	for _, v := range append([]string{""}, c.Venues()...) {
		name := v
		if name == "" {
			name = "ALL"
		}
		mix := c.MethodMix(v)
		if _, err := fmt.Fprintf(stdout, "  %-12s qual+mixed %.3f  measurement %.3f  systems %.3f  theory %.3f\n",
			name, mix[biblio.Qualitative]+mix[biblio.Mixed],
			mix[biblio.Measurement], mix[biblio.SystemsBuilding], mix[biblio.Theory]); err != nil {
			return err
		}
	}
	slope, r2 := biblio.TrendSlope(c.QualitativeShareByYear())
	if _, err := fmt.Fprintf(stdout, "\nqualitative-share trend: %+.4f/year (r2 %.2f)\n", slope, r2); err != nil {
		return err
	}

	if *export != "" {
		out, err := os.Create(*export)
		if err != nil {
			return err
		}
		if err := c.WriteJSON(out); err != nil {
			_ = out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "\nwrote corpus to %s\n", *export); err != nil {
			return err
		}
	}
	return nil
}
