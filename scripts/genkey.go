//go:build ignore

// genkey writes the quiz's answer-key table: it runs every question's
// oracle (package internal/oracle) and renders the rows, in paper
// order, as Go source in key_gen.go of the current directory. The row
// of each question holds its answer, its witness string and the
// exception flags the witness computation raised.
//
// Run via `go generate ./internal/quiz` from the repo root, which runs
// it in internal/quiz. scripts/check.sh regenerates the table and fails
// if the checked-in file differs.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"

	"fpstudy/internal/ieee754"
	"fpstudy/internal/oracle"
)

// flagNames are the Go names of the ieee754 flags, in bit order.
var flagNames = []struct {
	f    ieee754.Flags
	name string
}{
	{ieee754.FlagInvalid, "FlagInvalid"},
	{ieee754.FlagDivByZero, "FlagDivByZero"},
	{ieee754.FlagOverflow, "FlagOverflow"},
	{ieee754.FlagUnderflow, "FlagUnderflow"},
	{ieee754.FlagInexact, "FlagInexact"},
	{ieee754.FlagDenormal, "FlagDenormal"},
}

// rowNotes are comments written above a row of the table.
var rowNotes = map[string]string{
	"opt.level": "-O2 is the paper's key under optsim's modelling assumption, not a\n" +
		"derivation: optsim.ForLevel turns on ContractFMA at -O3. GCC 12 is\n" +
		"compliant at -O3 without an FMA target, highest at -O1 with -mfma,\n" +
		"and fuses nothing in ISO mode.",
}

// flagsExpr renders a flag set as a Go expression.
func flagsExpr(fl ieee754.Flags) string {
	var parts []string
	for _, fn := range flagNames {
		if fl&fn.f != 0 {
			parts = append(parts, "ieee754."+fn.name)
			fl &^= fn.f
		}
	}
	if fl != 0 {
		log.Fatalf("genkey: unnamed flag bits %#x", uint8(fl))
	}
	return strings.Join(parts, " | ")
}

func main() {
	var b bytes.Buffer
	b.WriteString(`// Code generated by go run ../../scripts/genkey.go; DO NOT EDIT.

package quiz

import "fpstudy/internal/ieee754"

// answerKey is the quiz's answer key, core questions then optimization
// questions in the paper's order, as the oracles in internal/oracle
// derive it. Regenerate it with go generate; the oracle package's test
// fails if a row differs from what its oracle derives.
var answerKey = [...]KeyRow{
`)
	for _, r := range oracle.Key() {
		if note, ok := rowNotes[r.ID]; ok {
			for _, line := range strings.Split(note, "\n") {
				fmt.Fprintf(&b, "\t// %s\n", line)
			}
		}
		fmt.Fprintf(&b, "\t{\n\t\tID: %q,\n\t\tAnswer: %q,\n\t\tWitness: %q,\n", r.ID, r.Answer, r.Witness)
		if r.Flags != 0 {
			fmt.Fprintf(&b, "\t\tFlags: %s,\n", flagsExpr(r.Flags))
		}
		if r.HostFPU {
			b.WriteString("\t\tHostFPU: true,\n")
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("genkey: formatting the table: %v", err)
	}
	if err := os.WriteFile("key_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
