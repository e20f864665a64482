// Package optsim models the floating point consequences of compiler
// optimization levels, fast-math flags, and non-standard hardware modes.
//
// It is the mechanical ground truth behind the paper's optimization
// quiz: a flag configuration is "non-standard" precisely when this
// simulator can exhibit an input on which the optimized evaluation of a
// program differs bit-for-bit from the strict IEEE evaluation. The
// rewrites mirror well-known compiler behaviours:
//
//   - -O0..-O2: no semantic floating point rewrites (value-safe only),
//     so -O2 is the highest level that preserves standard compliance.
//   - -O3: fused multiply-add contraction (a*b + c -> fma), mirroring
//     -ffp-contract=fast being enabled at high optimization.
//   - -ffast-math: contraction plus reassociation, reciprocal
//     approximation, algebraic simplifications that are wrong for
//     NaN/Inf/-0, and flush-to-zero/denormals-are-zero hardware modes.
package optsim

import (
	"fmt"
	"math/rand"

	"fpstudy/internal/expr"
	"fpstudy/internal/ieee754"
)

// Level is a conventional compiler optimization level, -O0 through -O3.
type Level int

const (
	O0 Level = iota
	O1
	O2
	O3
)

// String renders the level as a compiler flag.
func (l Level) String() string { return fmt.Sprintf("-O%d", int(l)) }

// Config describes an optimization configuration: the set of
// floating point transformations the "compiler" may apply and the
// hardware modes it enables.
type Config struct {
	Name     string
	Level    Level
	FastMath bool

	// ContractFMA fuses a*b ± c into a single-rounding FMA
	// (-ffp-contract=fast).
	ContractFMA bool
	// Reassociate rebalances +/* chains (-fassociative-math).
	Reassociate bool
	// RecipApprox rewrites x/y into x*(1/y) (-freciprocal-math).
	RecipApprox bool
	// UnsafeAlgebra applies identities that are wrong in the presence
	// of NaN, infinity, or signed zero: x-x -> 0, x/x -> 1, x*0 -> 0,
	// x+0 -> x (-ffinite-math-only, -fno-signed-zeros).
	UnsafeAlgebra bool
	// FTZDAZ enables flush-to-zero and denormals-are-zero in the
	// floating point environment (what linking with -ffast-math does
	// via crtfastmath setting MXCSR on x86).
	FTZDAZ bool
}

// ForLevel returns the configuration for a plain -O level with no
// fast-math flags.
func ForLevel(l Level) Config {
	c := Config{Name: l.String(), Level: l}
	if l >= O3 {
		c.ContractFMA = true
	}
	return c
}

// FastMath returns the -ffast-math configuration (at -O2, as commonly
// invoked).
func FastMath() Config {
	return Config{
		Name:          "-O2 -ffast-math",
		Level:         O2,
		FastMath:      true,
		ContractFMA:   true,
		Reassociate:   true,
		RecipApprox:   true,
		UnsafeAlgebra: true,
		FTZDAZ:        true,
	}
}

// Optimize applies the configuration's rewrites to an expression and
// returns the transformed tree along with the names of passes that made
// a change.
func (c Config) Optimize(n expr.Node) (expr.Node, []string) {
	var applied []string
	if c.UnsafeAlgebra {
		var changed bool
		n, changed = rewrite(n, unsafeAlgebra)
		if changed {
			applied = append(applied, "unsafe-algebra")
		}
	}
	if c.Reassociate {
		var changed bool
		n, changed = rewriteFixpoint(n, reassociate)
		if changed {
			applied = append(applied, "reassociate")
		}
	}
	if c.RecipApprox {
		var changed bool
		n, changed = rewrite(n, recipApprox)
		if changed {
			applied = append(applied, "reciprocal-math")
		}
	}
	if c.ContractFMA {
		var changed bool
		n, changed = rewrite(n, contractFMA)
		if changed {
			applied = append(applied, "fma-contraction")
		}
	}
	return n, applied
}

// EnvFor returns a fresh floating point environment with the
// configuration's hardware modes applied.
func (c Config) EnvFor() *ieee754.Env {
	return &ieee754.Env{FTZ: c.FTZDAZ, DAZ: c.FTZDAZ}
}

// rewriter transforms one node, reporting whether it changed. Children
// are already rewritten when it runs.
type rewriter func(expr.Node) (expr.Node, bool)

// rewrite applies r bottom-up over the tree once.
func rewrite(n expr.Node, r rewriter) (expr.Node, bool) {
	changed := false
	var walk func(expr.Node) expr.Node
	walk = func(m expr.Node) expr.Node {
		switch t := m.(type) {
		case expr.Unary:
			t.X = walk(t.X)
			m = t
		case expr.Binary:
			t.X = walk(t.X)
			t.Y = walk(t.Y)
			m = t
		case expr.FMA:
			t.X = walk(t.X)
			t.Y = walk(t.Y)
			t.Z = walk(t.Z)
			m = t
		}
		out, ch := r(m)
		if ch {
			changed = true
		}
		return out
	}
	return walk(n), changed
}

// rewriteFixpoint applies rewrite until no change (bounded).
func rewriteFixpoint(n expr.Node, r rewriter) (expr.Node, bool) {
	any := false
	for i := 0; i < 64; i++ {
		out, ch := rewrite(n, r)
		n = out
		if !ch {
			break
		}
		any = true
	}
	return n, any
}

// contractFMA fuses multiply-add shapes into FMA nodes.
func contractFMA(n expr.Node) (expr.Node, bool) {
	b, ok := n.(expr.Binary)
	if !ok {
		return n, false
	}
	switch b.Op {
	case expr.OpAdd:
		if m, ok := b.X.(expr.Binary); ok && m.Op == expr.OpMul {
			return expr.FMA{X: m.X, Y: m.Y, Z: b.Y}, true
		}
		if m, ok := b.Y.(expr.Binary); ok && m.Op == expr.OpMul {
			return expr.FMA{X: m.X, Y: m.Y, Z: b.X}, true
		}
	case expr.OpSub:
		if m, ok := b.X.(expr.Binary); ok && m.Op == expr.OpMul {
			// a*b - c = fma(a, b, -c)
			return expr.FMA{X: m.X, Y: m.Y, Z: expr.Unary{Op: expr.OpNeg, X: b.Y}}, true
		}
		if m, ok := b.Y.(expr.Binary); ok && m.Op == expr.OpMul {
			// c - a*b = fma(-a, b, c)
			return expr.FMA{X: expr.Unary{Op: expr.OpNeg, X: m.X}, Y: m.Y, Z: b.X}, true
		}
	}
	return n, false
}

// reassociate rotates left-leaning +/* chains rightward, modeling the
// reordering freedom -fassociative-math grants (vectorizers split sums
// into partial sums; any reorder suffices to exhibit non-compliance).
func reassociate(n expr.Node) (expr.Node, bool) {
	b, ok := n.(expr.Binary)
	if !ok || (b.Op != expr.OpAdd && b.Op != expr.OpMul) {
		return n, false
	}
	l, ok := b.X.(expr.Binary)
	if !ok || l.Op != b.Op {
		return n, false
	}
	// (x op y) op z  ->  x op (y op z)
	return expr.Binary{Op: b.Op, X: l.X, Y: expr.Binary{Op: b.Op, X: l.Y, Y: b.Y}}, true
}

// recipApprox rewrites division into multiplication by the reciprocal.
func recipApprox(n expr.Node) (expr.Node, bool) {
	b, ok := n.(expr.Binary)
	if !ok || b.Op != expr.OpDiv {
		return n, false
	}
	if l, ok := b.X.(expr.Lit); ok && l.V == 1 {
		return n, false // already a reciprocal
	}
	return expr.Binary{
		Op: expr.OpMul,
		X:  b.X,
		Y:  expr.Binary{Op: expr.OpDiv, X: expr.Lit{V: 1}, Y: b.Y},
	}, true
}

// unsafeAlgebra applies real-number identities that floating point does
// not honor for NaN, infinities, or signed zeros.
func unsafeAlgebra(n expr.Node) (expr.Node, bool) {
	b, ok := n.(expr.Binary)
	if !ok {
		return n, false
	}
	switch b.Op {
	case expr.OpSub:
		if expr.Equal(b.X, b.Y) {
			return expr.Lit{V: 0}, true // x - x -> 0 (wrong for NaN, Inf)
		}
	case expr.OpDiv:
		if expr.Equal(b.X, b.Y) {
			return expr.Lit{V: 1}, true // x / x -> 1 (wrong for NaN, 0, Inf)
		}
	case expr.OpAdd:
		if isLitZero(b.Y) {
			return b.X, true // x + 0 -> x (wrong for -0: (-0)+0 is +0)
		}
		if isLitZero(b.X) {
			return b.Y, true
		}
	case expr.OpMul:
		if isLitZero(b.Y) {
			return expr.Lit{V: 0}, true // x * 0 -> 0 (wrong for NaN, Inf, -x)
		}
		if isLitZero(b.X) {
			return expr.Lit{V: 0}, true
		}
	}
	return n, false
}

func isLitZero(n expr.Node) bool {
	l, ok := n.(expr.Lit)
	return ok && l.V == 0
}

// Witness records one input assignment on which strict and optimized
// evaluation disagree.
type Witness struct {
	Inputs    expr.Env
	Strict    uint64
	Optimized uint64
}

// Verdict is the result of a compliance check of a configuration
// against an expression.
type Verdict struct {
	// Compliant is true when no checked input produced a different
	// result.
	Compliant bool
	// PassesApplied names the rewrites that changed the expression.
	PassesApplied []string
	// Witness is a concrete diverging input when non-compliant.
	Witness *Witness
	// Checked is the number of input assignments evaluated.
	Checked int
	// Transformed is the optimized expression.
	Transformed expr.Node
}

// Check evaluates n over the corpus under the strict IEEE environment
// and under cfg (rewrites plus hardware modes) and reports whether any
// input diverges. NaN results compare equal regardless of payload.
func Check(f ieee754.Format, n expr.Node, cfg Config, corpus []expr.Env) Verdict {
	opt, applied := cfg.Optimize(n)
	v := Verdict{Compliant: true, PassesApplied: applied, Transformed: opt}
	for _, inputs := range corpus {
		strictEnv := &ieee754.Env{}
		optEnv := cfg.EnvFor()
		s := expr.Eval(f, strictEnv, n, inputs)
		o := expr.Eval(f, optEnv, opt, inputs)
		v.Checked++
		if f.IsNaN(s) && f.IsNaN(o) {
			continue
		}
		if s != o {
			v.Compliant = false
			v.Witness = &Witness{Inputs: inputs, Strict: s, Optimized: o}
			return v
		}
	}
	return v
}

// GenCorpus builds a deterministic input corpus for the variables of n:
// a grid over special values plus random values across magnitude
// regimes, the mixture that exposes reassociation, contraction, and
// FTZ/DAZ differences.
func GenCorpus(f ieee754.Format, n expr.Node, size int, seed int64) []expr.Env {
	vars := expr.Vars(n)
	rng := rand.New(rand.NewSource(seed))
	var scratch ieee754.Env
	specials := []uint64{
		f.Zero(false), f.Zero(true), f.One(false), f.One(true),
		f.Inf(false), f.Inf(true), f.QNaN(),
		f.MaxFinite(false), f.MinNormal(), f.MinSubnormal(),
		f.FromFloat64(&scratch, 3), f.FromFloat64(&scratch, 0.1),
		f.FromFloat64(&scratch, 1e8), f.FromFloat64(&scratch, 1e-8),
	}
	randVal := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1: // small integers
			return f.FromFloat64(&scratch, float64(rng.Intn(200)-100))
		case 2: // wide magnitude spread
			m := rng.Float64()*2 - 1
			exp := rng.Intn(40) - 20
			v := m
			for i := 0; i < exp; i++ {
				v *= 2
			}
			for i := 0; i > exp; i-- {
				v /= 2
			}
			return f.FromFloat64(&scratch, v)
		default: // subnormal-range
			bits := rng.Uint64() & (f.MinNormal() - 1)
			return bits
		}
	}
	corpus := make([]expr.Env, 0, size)
	for i := 0; i < size; i++ {
		env := expr.Env{}
		for _, name := range vars {
			env[name] = randVal()
		}
		corpus = append(corpus, env)
	}
	return corpus
}

// HighestCompliantLevel sweeps -O0..-O3 over a set of programs and
// returns the highest level that remained compliant on every program —
// the executable answer to the paper's "Standard-compliant Level" quiz
// question.
func HighestCompliantLevel(f ieee754.Format, programs []expr.Node, corpusSize int, seed int64) Level {
	best := O0
	for l := O0; l <= O3; l++ {
		ok := true
		for _, p := range programs {
			if !Check(f, p, ForLevel(l), GenCorpus(f, p, corpusSize, seed)).Compliant {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		best = l
	}
	return best
}

// WitnessPrograms returns the standard set of small programs used to
// probe configurations: shapes that compilers demonstrably transform.
func WitnessPrograms() []expr.Node {
	return []expr.Node{
		expr.MustParse("a*b + c"),           // FMA contraction
		expr.MustParse("(a + b) + c"),       // reassociation
		expr.MustParse("((a + b) + c) + d"), // deeper reassociation
		expr.MustParse("a/b"),               // reciprocal math
		expr.MustParse("a - a"),             // finite-math x-x
		expr.MustParse("a/a"),               // finite-math x/x
		expr.MustParse("a + 0"),             // signed zero
		expr.MustParse("a*0"),               // NaN/Inf * 0
		expr.MustParse("a*b - c"),           // FMA with subtract
		expr.MustParse("(a*b + c*d) + e"),   // dot-product shape
		expr.MustParse("a*1e-300*1e-10*b"),  // FTZ/DAZ territory
		expr.MustParse("sqrt(a*a + b*b)"),   // hypot shape
	}
}
