package fpstudy_test

// Runnable documentation examples (go test runs these and checks the
// output; godoc displays them).

import (
	"fmt"

	"fpstudy"
)

// The softfloat computes with visible exception flags — here, the
// famous 0.1 + 0.2.
func ExampleFormat() {
	var e fpstudy.Env
	a := fpstudy.Binary64.FromFloat64(&e, 0.1)
	b := fpstudy.Binary64.FromFloat64(&e, 0.2)
	sum := fpstudy.Binary64.Add(&e, a, b)
	fmt.Println(fpstudy.Binary64.String(sum))
	fmt.Println(e.Flags)
	// Output:
	// 0.30000000000000004
	// inexact
}

// Every quiz answer is derived by executing IEEE semantics.
func ExampleCoreQuestions() {
	for _, q := range fpstudy.CoreQuestions() {
		if q.ID != "core.zerodivzero" {
			continue
		}
		res := q.Oracle()
		fmt.Println("assertion holds:", res.Holds)
	}
	// Output:
	// assertion holds: false
}

// Compliance checking answers the optimization quiz mechanically.
func ExampleCheckCompliance() {
	n, _ := fpstudy.ParseExpr("a*b + c")
	v := fpstudy.CheckCompliance(fpstudy.Binary64, n, fpstudy.OptForLevel(3), 2000, 1)
	fmt.Println("-O3 compliant:", v.Compliant)
	fmt.Println("passes:", v.PassesApplied)
	// Output:
	// -O3 compliant: false
	// passes: [fma-contraction]
}
