// Command roamvet statically enforces the repository's determinism
// and documentation contracts (see docs/ARCHITECTURE.md and the
// internal/lint package docs).
//
// It runs two ways:
//
//	roamvet [packages]             # standalone, e.g. roamvet ./...
//	go vet -vettool=$(pwd)/roamvet ./...
//
// Standalone mode loads packages via `go list -export` and analyzes
// every matched package of this module; run from the module root on
// exactly `./...` (the default) it also loads the nested bench/
// module and applies the whole-module deadcode rule, which the
// one-package-at-a-time vettool protocol cannot. As a vettool it
// speaks the go command's unit-checking protocol (-V=full / -flags
// handshakes plus one JSON config per package), so findings integrate
// with go vet's caching and output, and CI can make the suite a hard
// build gate.
// Either way the exit status is 0 when the tree is clean, 2 when any
// analyzer reports a finding, 1 on operational errors.
//
// Analyzers: maporder, rngpurity, stablesort, floatfold, godoclint,
// and the whole-module deadcode.
// Safe sites are annotated in source with //roamvet:<analyzer>-ok
// <reason>; the reason is mandatory.
package main

import (
	"fmt"
	"os"
	"strings"

	"whereroam/internal/lint"
	"whereroam/internal/lint/driver"
)

// version is the fingerprint roamvet reports to the go command's
// -V=full handshake; it keys go vet's result cache, so bump it
// whenever analyzer behavior changes.
const version = "roamvet-1.1.0"

func main() {
	args := os.Args[1:]
	// The go command handshakes a vettool before use: -V=full asks
	// for a cache-keying version line, -flags for the supported
	// analyzer flags (roamvet has none).
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			fmt.Printf("roamvet version %s\n", version)
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		n, err := driver.RunVetCfg(args[0], os.Stderr)
		exit(n, err)
	}
	patterns := args
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

// exit maps (findings, error) onto the vettool exit protocol: 1 for
// operational errors, 2 for findings, 0 for a clean tree.
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
