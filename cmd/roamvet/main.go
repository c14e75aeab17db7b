// Command roamvet statically enforces the repository's determinism
// and documentation contracts (see docs/ARCHITECTURE.md and the
// internal/lint package docs).
//
// Usage:
//
//	roamvet [packages]             # e.g. roamvet ./...
//
// It loads packages via `go list -export` and analyzes every matched
// package of this module; run from the module root on exactly `./...`
// (the default) it also loads the nested bench/ module and applies the
// whole-module deadcode rule. The exit status is 0 when the tree is
// clean, 2 when any analyzer reports a finding, 1 on operational
// errors.
//
// Analyzers: maporder, rngpurity, stablesort, floatfold, godoclint,
// and the whole-module deadcode.
// Safe sites are annotated in source with //roamvet:<analyzer>-ok
// <reason>; the reason is mandatory.
package main

import (
	"fmt"
	"os"

	"whereroam/internal/lint"
	"whereroam/internal/lint/driver"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := driver.Load(".", patterns...)
	if err != nil {
		exit(0, err)
	}
	var diags []lint.Diagnostic
	for _, u := range units {
		diags = append(diags, lint.Run(u, lint.AnalyzersFor(u.Path))...)
	}
	if len(patterns) == 1 && patterns[0] == "./..." {
		bench, err := driver.Load("bench", "./...")
		if err != nil {
			exit(0, err)
		}
		diags = append(diags, lint.RunDeadcode(append(units, bench...))...)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	exit(len(diags), nil)
}

// exit maps (findings, error) onto the exit status: 1 for operational
// errors, 2 for findings, 0 for a clean tree.
func exit(findings int, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "roamvet: %v\n", err)
		os.Exit(1)
	}
	if findings > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}
