package expr

import (
	"math"
	"testing"

	"fpstudy/internal/ieee754"
)

func evalF64(t *testing.T, src string, vars map[string]float64) float64 {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	var fe ieee754.Env
	env := Env{}
	var se ieee754.Env
	for k, v := range vars {
		env[k] = ieee754.Binary64.FromFloat64(&se, v)
	}
	return ieee754.Binary64.ToFloat64(Eval(ieee754.Binary64, &fe, n, env))
}

func TestParseAndEval(t *testing.T) {
	cases := []struct {
		src  string
		vars map[string]float64
		want float64
	}{
		{"1 + 2", nil, 3},
		{"2*3 + 4", nil, 10},
		{"2*(3 + 4)", nil, 14},
		{"a - b", map[string]float64{"a": 5, "b": 2}, 3},
		{"-a", map[string]float64{"a": 7}, -7},
		{"a/b", map[string]float64{"a": 1, "b": 4}, 0.25},
		{"sqrt(9)", nil, 3},
		{"fma(2, 3, 4)", nil, 10},
		{"1 - 2 - 3", nil, -4},    // left associative
		{"12/4/3", nil, 1},        // left associative
		{"2 + 3*4 - 1", nil, 13},  // precedence
		{"-2*3", nil, -6},         // unary binds tight
		{"1e2 + 0.5", nil, 100.5}, // scientific literal
		{"sqrt(a*a)", map[string]float64{"a": -4}, 4},
		{"fma(a, b, -c)", map[string]float64{"a": 2, "b": 5, "c": 1}, 9},
	}
	for _, c := range cases {
		if got := evalF64(t, c.src, c.vars); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "sqrt()", "sqrt(1,2)", "fma(1,2)", "foo(1)",
		"1 ^ 2", "..", "a b",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"a + b*c",
		"(a + b)*c",
		"a - (b - c)",
		"sqrt(a) + fma(a, b, c)",
		"-(a + b)",
		"a/b/c",
	}
	for _, src := range srcs {
		n := MustParse(src)
		back, err := Parse(n.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", n.String(), src, err)
		}
		if !Equal(n, back) {
			t.Errorf("round trip changed %q -> %q", src, back.String())
		}
	}
}

func TestVars(t *testing.T) {
	n := MustParse("z + a*b - sqrt(a)")
	got := Vars(n)
	want := []string{"a", "b", "z"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestUnboundVarIsNaN(t *testing.T) {
	var fe ieee754.Env
	r := Eval(ieee754.Binary64, &fe, MustParse("missing + 1"), Env{})
	if !ieee754.Binary64.IsNaN(r) {
		t.Fatalf("unbound var eval = %x", r)
	}
}

func TestEvalRaisesFlags(t *testing.T) {
	var fe ieee754.Env
	Eval(ieee754.Binary64, &fe, MustParse("1/0"), Env{})
	if !fe.Flags.Has(ieee754.FlagDivByZero) {
		t.Fatalf("1/0 flags: %v", fe.Flags)
	}
	fe = ieee754.Env{}
	Eval(ieee754.Binary64, &fe, MustParse("sqrt(0 - 1)"), Env{})
	if !fe.Flags.Has(ieee754.FlagInvalid) {
		t.Fatalf("sqrt(-1) flags: %v", fe.Flags)
	}
}

func TestLiteralConversionDoesNotRaise(t *testing.T) {
	var fe ieee754.Env
	// 0.1 is inexact in binary, but literal materialization must not
	// raise application flags (the compiler did that, not the program).
	Eval(ieee754.Binary64, &fe, MustParse("0.1"), Env{})
	if fe.Flags != 0 {
		t.Fatalf("literal raised %v", fe.Flags)
	}
}

func TestEvalBinary16(t *testing.T) {
	// The same source computes different answers in different formats:
	// 0.1 + 0.2 in binary16 vs binary64.
	var fe ieee754.Env
	n := MustParse("0.1 + 0.2")
	r16 := ieee754.Binary16.ToFloat64(Eval(ieee754.Binary16, &fe, n, nil))
	r64 := ieee754.Binary64.ToFloat64(Eval(ieee754.Binary64, &fe, n, nil))
	if r16 == r64 {
		t.Fatal("expected precision-dependent result")
	}
	if math.Abs(r16-0.3) > 0.001 || math.Abs(r64-0.3) > 1e-15 {
		t.Fatalf("r16=%v r64=%v", r16, r64)
	}
}

func TestEqualDistinguishes(t *testing.T) {
	if Equal(MustParse("a + b"), MustParse("b + a")) {
		t.Fatal("a+b should not equal b+a structurally")
	}
	if !Equal(MustParse("a + b"), MustParse("a + b")) {
		t.Fatal("identical trees unequal")
	}
	if Equal(MustParse("a + b"), MustParse("a - b")) {
		t.Fatal("different ops equal")
	}
	if Equal(MustParse("fma(a,b,c)"), MustParse("a*b + c")) {
		t.Fatal("fma should differ from mul+add structurally")
	}
}

// FuzzParse requires every expression Parse accepts to print to text
// that parses again and prints identically.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"a + b*c", "(a + b)*c", "a - (b - c)", "sqrt(a) + fma(a, b, c)",
		"-(a + b)", "a/b/c", "0.1 + 0.2", "1/0", "sqrt(0 - 1)",
		"", "1 +", "(1", "sqrt()", "fma(1,2)", "foo(1)", "1 ^ 2", "..", "a b",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		back, err := Parse(n.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", n.String(), src, err)
		}
		if back.String() != n.String() {
			t.Fatalf("reparse of %q prints %q", n.String(), back.String())
		}
	})
}
