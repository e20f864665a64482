package optsim

import (
	"testing"

	"fpstudy/internal/expr"
	"fpstudy/internal/ieee754"
)

var f64 = ieee754.Binary64

func TestO0ThroughO2AreCompliant(t *testing.T) {
	for _, p := range WitnessPrograms() {
		for l := O0; l <= O2; l++ {
			v := Check(f64, p, ForLevel(l), GenCorpus(f64, p, 500, 1))
			if !v.Compliant {
				t.Errorf("%v non-compliant on %q: strict=%x opt=%x inputs=%v",
					l, p.String(), v.Witness.Strict, v.Witness.Optimized, v.Witness.Inputs)
			}
			if len(v.PassesApplied) != 0 {
				t.Errorf("%v applied passes %v on %q", l, v.PassesApplied, p.String())
			}
		}
	}
}

func TestO3ContractsFMAAndDiverges(t *testing.T) {
	p := expr.MustParse("a*b + c")
	v := Check(f64, p, ForLevel(O3), GenCorpus(f64, p, 2000, 2))
	if v.Compliant {
		t.Fatal("-O3 FMA contraction should diverge from strict on some input")
	}
	if len(v.PassesApplied) != 1 || v.PassesApplied[0] != "fma-contraction" {
		t.Fatalf("passes: %v", v.PassesApplied)
	}
	if _, ok := v.Transformed.(expr.FMA); !ok {
		t.Fatalf("transformed: %v", v.Transformed)
	}
}

func TestFastMathDiverges(t *testing.T) {
	progs := []string{
		"(a + b) + c",      // reassociation
		"a/b",              // reciprocal
		"a - a",            // x-x with NaN/Inf inputs
		"a/a",              // x/x with zero/NaN/Inf inputs
		"a*0",              // x*0 with NaN/Inf inputs
		"a*1e-300*1e-10*b", // FTZ/DAZ
	}
	for _, src := range progs {
		p := expr.MustParse(src)
		v := Check(f64, p, FastMath(), GenCorpus(f64, p, 3000, 3))
		if v.Compliant {
			t.Errorf("fast-math stayed compliant on %q (passes %v)", src, v.PassesApplied)
		}
	}
}

func TestHighestCompliantLevelIsO2(t *testing.T) {
	got := HighestCompliantLevel(f64, WitnessPrograms(), 1000, 42)
	if got != O2 {
		t.Fatalf("highest compliant level = %v, want -O2", got)
	}
}

func TestReassociateRotation(t *testing.T) {
	n := expr.MustParse("(a + b) + c")
	out, changed := rewriteFixpoint(n, reassociate)
	if !changed {
		t.Fatal("no rotation")
	}
	want := expr.MustParse("a + (b + c)")
	if !expr.Equal(out, want) {
		t.Fatalf("got %q want %q", out.String(), want.String())
	}
	// Deep chains fully rotate.
	n = expr.MustParse("((a + b) + c) + d")
	out, _ = rewriteFixpoint(n, reassociate)
	want = expr.MustParse("a + (b + (c + d))")
	if !expr.Equal(out, want) {
		t.Fatalf("deep: got %q want %q", out.String(), want.String())
	}
}

func TestContractVariants(t *testing.T) {
	cases := []struct{ src, want string }{
		{"a*b + c", "fma(a, b, c)"},
		{"c + a*b", "fma(a, b, c)"},
		{"a*b - c", "fma(a, b, -c)"},
		{"c - a*b", "fma(-a, b, c)"},
	}
	for _, c := range cases {
		out, changed := rewrite(expr.MustParse(c.src), contractFMA)
		if !changed {
			t.Errorf("%q: no contraction", c.src)
			continue
		}
		if !expr.Equal(out, expr.MustParse(c.want)) {
			t.Errorf("%q -> %q, want %q", c.src, out.String(), c.want)
		}
	}
}

func TestRecipApprox(t *testing.T) {
	out, changed := rewrite(expr.MustParse("a/b"), recipApprox)
	if !changed || !expr.Equal(out, expr.MustParse("a*(1/b)")) {
		t.Fatalf("got %q", out.String())
	}
	// 1/b is left alone (it is already a reciprocal).
	_, changed = rewrite(expr.MustParse("1/b"), recipApprox)
	if changed {
		t.Fatal("1/b should not be rewritten")
	}
}

func TestUnsafeAlgebraWitnesses(t *testing.T) {
	// x - x -> 0 is wrong when x is Inf or NaN.
	var scratch ieee754.Env
	inf := f64.Inf(false)
	p := expr.MustParse("a - a")
	opt, _ := FastMath().Optimize(p)
	strictEnv := &ieee754.Env{}
	in := expr.Env{"a": inf}
	s := expr.Eval(f64, strictEnv, p, in)
	o := expr.Eval(f64, &scratch, opt, in)
	if !f64.IsNaN(s) {
		t.Fatalf("strict inf-inf = %x, want NaN", s)
	}
	if f64.IsNaN(o) {
		t.Fatal("optimized inf-inf still NaN; x-x not folded")
	}
	// x + 0 -> x is wrong for x = -0 (result should be +0).
	p = expr.MustParse("a + 0")
	opt, _ = FastMath().Optimize(p)
	in = expr.Env{"a": f64.Zero(true)}
	s = expr.Eval(f64, strictEnv, p, in)
	o = expr.Eval(f64, &scratch, opt, in)
	if f64.SignBit(s) {
		t.Fatal("strict (-0)+0 should be +0")
	}
	if !f64.SignBit(o) {
		t.Fatal("optimized (-0)+0 should remain -0 (witnessing the change)")
	}
}

func TestFTZDAZEnvDiverges(t *testing.T) {
	// Even with no rewrites possible, fast-math's FTZ/DAZ hardware mode
	// changes results of subnormal-producing programs.
	p := expr.MustParse("a*b")
	cfg := Config{Name: "ftz-only", FTZDAZ: true}
	var scratch ieee754.Env
	in := expr.Env{
		"a": f64.FromFloat64(&scratch, 1e-310), // subnormal
		"b": f64.FromFloat64(&scratch, 1e10),
	}
	v := Check(f64, p, cfg, []expr.Env{in})
	if v.Compliant {
		t.Fatal("FTZ/DAZ should diverge on subnormal input")
	}
	if len(v.PassesApplied) != 0 {
		t.Fatalf("unexpected rewrites: %v", v.PassesApplied)
	}
}

func TestStrictConfigIdentity(t *testing.T) {
	for _, p := range WitnessPrograms() {
		strict := Config{Name: "strict"} // no rewrite enabled
		opt, applied := strict.Optimize(p)
		if !expr.Equal(opt, p) || len(applied) != 0 {
			t.Errorf("strict config rewrote %q", p.String())
		}
		v := Check(f64, p, strict, GenCorpus(f64, p, 300, 7))
		if !v.Compliant {
			t.Errorf("strict config non-compliant on %q", p.String())
		}
	}
}

func TestConfigNamesAndSweep(t *testing.T) {
	cfgs := []Config{ForLevel(O0), ForLevel(O1), ForLevel(O2), ForLevel(O3), FastMath()}
	wantNames := []string{"-O0", "-O1", "-O2", "-O3", "-O2 -ffast-math"}
	for i, c := range cfgs {
		if c.Name != wantNames[i] {
			t.Errorf("config %d name %q want %q", i, c.Name, wantNames[i])
		}
	}
	if O3.String() != "-O3" {
		t.Fatal("level string")
	}
}

func TestGenCorpusDeterministic(t *testing.T) {
	p := expr.MustParse("a + b")
	c1 := GenCorpus(f64, p, 50, 9)
	c2 := GenCorpus(f64, p, 50, 9)
	if len(c1) != 50 || len(c2) != 50 {
		t.Fatal("corpus size")
	}
	for i := range c1 {
		for k, v := range c1[i] {
			if c2[i][k] != v {
				t.Fatal("corpus not deterministic")
			}
		}
	}
}

func TestVerdictCountsChecked(t *testing.T) {
	p := expr.MustParse("a + b")
	v := Check(f64, p, ForLevel(O2), GenCorpus(f64, p, 123, 5))
	if v.Checked != 123 {
		t.Fatalf("checked %d", v.Checked)
	}
}
