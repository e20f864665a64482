// Command fpexpr evaluates a floating point expression on the softfloat
// substrate and reports everything the paper says developers rarely
// see: the exact bit pattern, the exception flags raised, the result in
// every format, the effect of rounding modes and fast-math, and the
// arbitrary-precision shadow value.
//
// Usage:
//
//	fpexpr '0.1 + 0.2'
//	fpexpr -var a=1e16 -var b=1 '(a + b) - a'
//	fpexpr -format binary16 'sqrt(2)'
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fpstudy/internal/expr"
	"fpstudy/internal/ieee754"
	"fpstudy/internal/mpfloat"
	"fpstudy/internal/optsim"
)

type varFlags map[string]float64

func (v varFlags) String() string { return fmt.Sprint(map[string]float64(v)) }
func (v varFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	v[name] = f
	return nil
}

func main() {
	vars := varFlags{}
	flag.Var(vars, "var", "bind a variable, e.g. -var a=1.5 (repeatable)")
	formatName := flag.String("format", "binary64", "binary16, bfloat16, binary32, or binary64")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fpexpr [-var name=value]... [-format f] '<expression>'")
		os.Exit(2)
	}
	src := flag.Arg(0)
	n, err := expr.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpexpr:", err)
		os.Exit(1)
	}

	formats := map[string]ieee754.Format{
		"binary16": ieee754.Binary16,
		"bfloat16": ieee754.Bfloat16,
		"binary32": ieee754.Binary32,
		"binary64": ieee754.Binary64,
	}
	f, ok := formats[*formatName]
	if !ok {
		fmt.Fprintln(os.Stderr, "fpexpr: unknown format", *formatName)
		os.Exit(2)
	}

	bind := func(g ieee754.Format) expr.Env {
		env := expr.Env{}
		var scratch ieee754.Env
		for k, v := range vars {
			env[k] = g.FromFloat64(&scratch, v)
		}
		return env
	}

	// Primary evaluation.
	var fe ieee754.Env
	res := expr.Eval(f, &fe, n, bind(f))
	fmt.Printf("expression: %s\n", n.String())
	fmt.Printf("format:     %s\n", f.Name)
	fmt.Printf("value:      %s\n", f.String(res))
	fmt.Printf("exact form: %s\n", f.Hex(res))
	fmt.Printf("encoding:   %s\n", f.BitString(res))
	fmt.Printf("flags:      %s\n", fe.Flags)

	// Every format side by side.
	fmt.Println("\nacross formats:")
	for _, name := range []string{"binary16", "bfloat16", "binary32", "binary64"} {
		g := formats[name]
		var ge ieee754.Env
		r := expr.Eval(g, &ge, n, bind(g))
		fmt.Printf("  %-9s %-24s flags: %s\n", g.Name, g.String(r), ge.Flags)
	}

	// Rounding modes.
	fmt.Println("\nacross rounding modes:")
	for _, m := range []ieee754.RoundingMode{
		ieee754.NearestEven, ieee754.NearestAway, ieee754.TowardZero,
		ieee754.TowardPositive, ieee754.TowardNegative,
	} {
		ge := ieee754.Env{Rounding: m}
		r := expr.Eval(f, &ge, n, bind(f))
		fmt.Printf("  %-22s %s\n", m, f.Hex(r))
	}

	// Fast-math.
	cfg := optsim.FastMath()
	opt, passes := cfg.Optimize(n)
	oe := cfg.EnvFor()
	optRes := expr.Eval(f, oe, opt, bind(f))
	fmt.Println("\nunder -ffast-math:")
	fmt.Printf("  rewritten:  %s (passes: %v)\n", opt.String(), passes)
	fmt.Printf("  value:      %s", f.String(optRes))
	if optRes != res && !(f.IsNaN(optRes) && f.IsNaN(res)) {
		fmt.Printf("   <-- DIFFERS from strict IEEE")
	}
	fmt.Println()

	// Arbitrary-precision shadow.
	ctx := mpfloat.NewContext(200)
	vm := map[string]mpfloat.Float{}
	for k, v := range vars {
		vm[k] = mpfloat.FromFloat64(v)
	}
	shadow := ctx.EvalExpr(n, vm)
	fmt.Println("\n200-bit shadow:")
	fmt.Printf("  value:      %s\n", shadow.DecimalString(40))
}
