// Command nurapidlint is the repository's multichecker: it runs the
// simulator-specific analyzers from internal/lint (determinism,
// panicstyle, statsreg, hotpath, plus the directives meta-check) over
// the packages matching the given patterns, and — unless -vet=false —
// the stock `go vet` passes as well.
//
// Usage:
//
//	go run ./cmd/nurapidlint ./...          # custom analyzers + go vet
//	go run ./cmd/nurapidlint -vet=false ./internal/nurapid
//	go run ./cmd/nurapidlint -list          # describe the analyzers
//	go run ./cmd/nurapidlint -json ./...    # machine-readable findings
//	go run ./cmd/nurapidlint -escapecheck ./...             # compiler gate
//	go run ./cmd/nurapidlint -escapecheck -rebaseline ./... # refresh baseline
//
// The whole-program analyzers (hotpath) see only the packages given, so
// the patterns should normally be "./..." — on a partial package set,
// cross-package callees look external and findings are missed.
//
// The exit status is non-zero when any analyzer (custom or vet) reports
// a diagnostic, so the command doubles as the CI lint gate. Findings can
// be suppressed per line with a
//
//	//nurapidlint:ignore <analyzer> <reason>
//
// comment on or directly above the offending line; directives that name
// an unknown analyzer or suppress nothing are themselves reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"nurapid/internal/lint"
)

// jsonDiag is the machine-readable form of one finding, for -json.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonReport is the -json document: the findings plus their count, so
// CI artifacts are self-describing.
type jsonReport struct {
	Diagnostics []jsonDiag `json:"diagnostics"`
	Count       int        `json:"count"`
}

func main() {
	var (
		vet         = flag.Bool("vet", true, "also run the stock go vet passes")
		list        = flag.Bool("list", false, "list the custom analyzers and exit")
		jsonOut     = flag.Bool("json", false, "emit findings as a JSON report on stdout")
		escapeCheck = flag.Bool("escapecheck", false, "run the compiler escape-analysis gate instead of the analyzers")
		rebaseline  = flag.Bool("rebaseline", false, "with -escapecheck: rewrite lint_escape_baseline.json from current compiler output")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nurapidlint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nurapidlint:", err)
		os.Exit(2)
	}

	if *escapeCheck {
		os.Exit(runEscapeCheck(cwd, pkgs, patterns, *rebaseline))
	}

	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "nurapidlint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		report := jsonReport{Diagnostics: make([]jsonDiag, 0, len(diags)), Count: len(diags)}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "nurapidlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	failed := len(diags) > 0
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
