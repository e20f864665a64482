// Package oracle derives the quiz's answer key by executing IEEE
// semantics: every question of the core and optimization quizzes has a
// check here that runs the ieee754 softfloat (and, for the optimization
// quiz, the optsim compiler model) and returns the question's row of the
// key — the answer, a witness string (a concrete counterexample or a
// summary of the property check) and the exception flags the witness
// computation raised.
//
// No run path imports this package. scripts/genkey.go runs every oracle
// and writes the rows into the quiz package's answer-key table
// (internal/quiz/key_gen.go), which grading, generation and reporting
// read; this package's test re-runs every oracle and fails on any
// difference from that table. The oracle stays the source of truth;
// only the time it runs moves.
package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"fpstudy/internal/expr"
	"fpstudy/internal/ieee754"
	"fpstudy/internal/optsim"
	"fpstudy/internal/quiz"
)

// Run executes the oracle of the question with the given ID and returns
// the key row it derives.
func Run(id string) (quiz.KeyRow, bool) {
	o, ok := oracles[id]
	if !ok {
		return quiz.KeyRow{}, false
	}
	row := o()
	row.ID = id
	return row, true
}

// Key runs every oracle, core questions then optimization questions in
// the paper's order: the answer key the quiz package's table must equal.
// It panics if a question has no oracle.
func Key() []quiz.KeyRow {
	ids := questionIDs()
	key := make([]quiz.KeyRow, 0, len(ids))
	for _, id := range ids {
		row, ok := Run(id)
		if !ok {
			panic("oracle: no oracle for question " + id)
		}
		key = append(key, row)
	}
	return key
}

// questionIDs lists the quiz's question IDs, core then optimization,
// in the paper's order.
func questionIDs() []string {
	var ids []string
	for _, q := range quiz.CoreQuestions() {
		ids = append(ids, q.ID)
	}
	for _, q := range quiz.OptQuestions() {
		ids = append(ids, q.ID)
	}
	return ids
}

// verdict builds a key row for a true/false assertion from whether it
// holds, the witness, and the environment the witness computation ran
// in.
func verdict(holds bool, witness string, e *ieee754.Env) quiz.KeyRow {
	answer := "false"
	if holds {
		answer = "true"
	}
	return quiz.KeyRow{Answer: answer, Witness: witness, Flags: e.Flags}
}

// strictFlags evaluates n on inputs under strict IEEE semantics and
// returns the flags the evaluation raised: the flag column of an optsim
// row, whose witness is a set of inputs on which the optimized program
// differs.
func strictFlags(f ieee754.Format, n expr.Node, inputs expr.Env) ieee754.Flags {
	var e ieee754.Env
	expr.Eval(f, &e, n, inputs)
	return e.Flags
}

var f64 = ieee754.Binary64

func fb(v float64) uint64 { return math.Float64bits(v) }

// sampleNonNaN draws a deterministic operand stream avoiding NaNs,
// mixing magnitudes and specials (infinities included, per the quiz
// prompts which exclude only NaNs).
func sampleNonNaN(rng *rand.Rand) uint64 {
	for {
		var b uint64
		switch rng.Intn(6) {
		case 0:
			b = rng.Uint64()
		case 1:
			b = fb(float64(rng.Intn(2001) - 1000))
		case 2:
			b = fb((rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(120)-60))
		case 3:
			b = rng.Uint64() & 0x800fffffffffffff // subnormal
		case 4:
			b = f64.Inf(rng.Intn(2) == 0)
		default:
			b = fb(rng.NormFloat64())
		}
		if !f64.IsNaN(b) {
			return b
		}
	}
}

// oracles maps each question ID to its check.
var oracles = map[string]func() quiz.KeyRow{
	"core.commutativity": func() quiz.KeyRow {
		var e ieee754.Env
		rng := rand.New(rand.NewSource(101))
		for i := 0; i < 50000; i++ {
			a, b := sampleNonNaN(rng), sampleNonNaN(rng)
			l := f64.Add(&e, a, b)
			r := f64.Add(&e, b, a)
			if l != r && !(f64.IsNaN(l) && f64.IsNaN(r)) {
				return verdict(false, fmt.Sprintf(
					"counterexample: x=%s y=%s", f64.String(a), f64.String(b)), &e)
			}
		}
		return verdict(true,
			"holds on 50,000 sampled non-NaN pairs including infinities and subnormals", &e)
	},

	"core.associativity": func() quiz.KeyRow {
		var e ieee754.Env
		one := fb(1)
		tiny := fb(math.Ldexp(1, -53))
		l := f64.Add(&e, f64.Add(&e, one, tiny), tiny)
		r := f64.Add(&e, one, f64.Add(&e, tiny, tiny))
		if l != r {
			return verdict(false, fmt.Sprintf(
				"counterexample: x=1, y=z=2^-53: (x+y)+z = %s but x+(y+z) = %s",
				f64.Hex(l), f64.Hex(r)), &e)
		}
		return verdict(true, "no counterexample found (unexpected)", &e)
	},

	"core.distributivity": func() quiz.KeyRow {
		var e ieee754.Env
		rng := rand.New(rand.NewSource(103))
		for i := 0; i < 100000; i++ {
			x, y, z := sampleNonNaN(rng), sampleNonNaN(rng), sampleNonNaN(rng)
			l := f64.Mul(&e, x, f64.Add(&e, y, z))
			r := f64.Add(&e, f64.Mul(&e, x, y), f64.Mul(&e, x, z))
			if l != r && !f64.IsNaN(l) && !f64.IsNaN(r) {
				return verdict(false, fmt.Sprintf(
					"counterexample: x=%s y=%s z=%s", f64.String(x), f64.String(y), f64.String(z)), &e)
			}
		}
		return verdict(true, "no counterexample found (unexpected)", &e)
	},

	"core.ordering": func() quiz.KeyRow {
		var e ieee754.Env
		x, y := fb(1e16), fb(1)
		got := f64.Sub(&e, f64.Add(&e, x, y), x)
		if got != y {
			return verdict(false, fmt.Sprintf(
				"counterexample: x=1e16 y=1: (x+y)-x = %s, not 1", f64.String(got)), &e)
		}
		return verdict(true, "no counterexample found (unexpected)", &e)
	},

	"core.identity": func() quiz.KeyRow {
		var e ieee754.Env
		n := f64.QNaN()
		if !f64.Eq(&e, n, n) {
			return verdict(false,
				"counterexample: the result of 0.0/0.0 compares unequal to itself", &e)
		}
		return verdict(true, "no counterexample found (unexpected)", &e)
	},

	"core.negzero": func() quiz.KeyRow {
		var e ieee754.Env
		zeros := []uint64{f64.Zero(false), f64.Zero(true)}
		for _, a := range zeros {
			for _, b := range zeros {
				if !f64.Eq(&e, a, b) {
					return verdict(true, fmt.Sprintf(
						"zeros %s and %s compare unequal", f64.String(a), f64.String(b)), &e)
				}
			}
		}
		return verdict(false,
			"checked all zero encodings: +0 and -0 always compare equal", &e)
	},

	"core.square": func() quiz.KeyRow {
		var e ieee754.Env
		rng := rand.New(rand.NewSource(107))
		for i := 0; i < 50000; i++ {
			x := sampleNonNaN(rng)
			sq := f64.Mul(&e, x, x)
			if !f64.Ge(&e, sq, f64.Zero(false)) {
				return verdict(false, fmt.Sprintf(
					"counterexample: x=%s gives x*x=%s", f64.String(x), f64.String(sq)), &e)
			}
		}
		// Also check every binary16 value exhaustively.
		f16 := ieee754.Binary16
		for x := uint64(0); x < 1<<16; x++ {
			if f16.IsNaN(x) {
				continue
			}
			sq := f16.Mul(&e, x, x)
			if !f16.Ge(&e, sq, f16.Zero(false)) {
				return verdict(false, fmt.Sprintf(
					"binary16 counterexample: %#04x", x), &e)
			}
		}
		return verdict(true,
			"holds exhaustively in binary16 and on 50,000 binary64 samples (unlike integer arithmetic, where x*x can wrap negative)", &e)
	},

	"core.overflow": func() quiz.KeyRow {
		var e ieee754.Env
		r := f64.Mul(&e, f64.MaxFinite(false), fb(2))
		if f64.SignBit(r) {
			return verdict(true, "overflow wrapped to a negative value", &e)
		}
		return verdict(false, fmt.Sprintf(
			"DBL_MAX*2 = %s: floating point overflow saturates at infinity instead of wrapping",
			f64.String(r)), &e)
	},

	"core.divzero": func() quiz.KeyRow {
		var e ieee754.Env
		r := f64.Div(&e, fb(1), fb(0))
		if f64.IsNaN(r) {
			return verdict(false, "1.0/0.0 produced a NaN", &e)
		}
		return verdict(true, fmt.Sprintf(
			"1.0/0.0 = %s: an infinity, which can propagate to output disguised as an ordinary number",
			f64.String(r)), &e)
	},

	"core.zerodivzero": func() quiz.KeyRow {
		var e ieee754.Env
		r := f64.Div(&e, fb(0), fb(0))
		if !f64.IsNaN(r) {
			return verdict(true, fmt.Sprintf("0.0/0.0 = %s", f64.String(r)), &e)
		}
		return verdict(false,
			"0.0/0.0 is a NaN, which propagates visibly to the output", &e)
	},

	"core.satplus": func() quiz.KeyRow {
		var e ieee754.Env
		inf := f64.Inf(false)
		if f64.Eq(&e, f64.Add(&e, inf, fb(1)), inf) {
			if big := fb(1e30); f64.Eq(&e, f64.Add(&e, big, fb(1)), big) {
				return verdict(true,
					"x = infinity gives x+1 == x (saturation); so does x = 1e30 (absorption)", &e)
			}
			return verdict(true, "x = infinity gives x+1 == x (saturation)", &e)
		}
		return verdict(false, "no saturating value found (unexpected)", &e)
	},

	"core.satminus": func() quiz.KeyRow {
		var e ieee754.Env
		inf := f64.Inf(false)
		if f64.Eq(&e, f64.Sub(&e, inf, fb(1)), inf) {
			return verdict(true,
				"x = infinity gives x-1 == x: there is no backing off from infinity", &e)
		}
		return verdict(false, "no saturating value found (unexpected)", &e)
	},

	// core.denormprec measures the relative step on the host FPU, so
	// its row raises no softfloat flags and says so.
	"core.denormprec": func() quiz.KeyRow {
		// In the subnormal range, the ulp stays fixed while the value
		// shrinks, so relative precision degrades down to a single
		// significant bit at the minimum subnormal. 1e-310 is subnormal
		// in binary64; adding a unit in the last place is a far larger
		// relative change than for a normal number.
		row := quiz.KeyRow{Answer: "false", HostFPU: true}
		x := fb(1e-310)
		if !f64.IsSubnormal(x) {
			row.Witness = "1e-310 unexpectedly normal"
			return row
		}
		next := x + 1 // next representable
		rel := (f64.ToFloat64(next) - f64.ToFloat64(x)) / f64.ToFloat64(x)
		const normalEps = 0x1p-52 // relative ulp of a normal number
		if rel > 10*normalEps {
			row.Answer = "true"
			row.Witness = fmt.Sprintf(
				"at 1e-310 one ulp is a %.1e relative step (vs ~1e-16 for normal numbers): gradual underflow trades precision for range",
				rel)
			return row
		}
		row.Witness = "subnormals show full precision (unexpected)"
		return row
	},

	"core.opprec": func() quiz.KeyRow {
		var e ieee754.Env
		r := f64.Add(&e, fb(0.1), fb(0.2))
		if e.LastRaised.Has(ieee754.FlagInexact) {
			return verdict(true,
				"0.1 + 0.2 required rounding (the true sum is not representable), losing precision relative to the operands", &e)
		}
		return verdict(false, fmt.Sprintf(
			"0.1+0.2 = %s was exact (unexpected)", f64.String(r)), &e)
	},

	"core.sigexc": func() quiz.KeyRow {
		// By default IEEE exceptions only set sticky status flags;
		// execution continues with the substituted result. Demonstrate:
		// run an invalid op and observe that control flow proceeds and
		// only a flag records it.
		var e ieee754.Env
		r := f64.Div(&e, fb(0), fb(0))
		executedPast := true // we are still running
		if executedPast && e.Flags.Has(ieee754.FlagInvalid) && f64.IsNaN(r) {
			return verdict(false,
				"0.0/0.0 merely set the sticky invalid flag and returned NaN; by default no trap or signal is delivered (unlike integer division by zero)", &e)
		}
		return verdict(true, "a signal was delivered (unexpected)", &e)
	},

	"opt.madd": func() quiz.KeyRow {
		// Value claim: fused differs from separate on a witness.
		var e ieee754.Env
		a := f64.FromFloat64(&e, 1+0x1p-30)
		c := f64.FromFloat64(&e, -1)
		fused := f64.FMA(&e, a, a, c)
		sep := f64.Add(&e, f64.Mul(&e, a, a), c)
		if fused == sep {
			return verdict(true, "fused and separate always agreed (unexpected)", &e)
		}
		return verdict(false, fmt.Sprintf(
			"witness x=y=1+2^-30, z=-1: fused gives %s, separate gives %s; "+
				"fused multiply-add entered the standard only in the 2008 revision",
			f64.Hex(fused), f64.Hex(sep)), &e)
	},

	"opt.ftz": func() quiz.KeyRow {
		p := expr.MustParse("a*b")
		cfg := optsim.Config{Name: "ftz", FTZDAZ: true}
		v := optsim.Check(f64, p, cfg, optsim.GenCorpus(f64, p, 3000, 11))
		if v.Compliant {
			return quiz.KeyRow{Answer: "true", Witness: "FTZ/DAZ never changed a result (unexpected)"}
		}
		w := v.Witness
		return quiz.KeyRow{Answer: "false", Flags: strictFlags(f64, p, w.Inputs), Witness: fmt.Sprintf(
			"witness a=%s b=%s: IEEE gives %s, FTZ/DAZ gives %s — gradual underflow is required by the standard",
			f64.String(w.Inputs["a"]), f64.String(w.Inputs["b"]),
			f64.String(w.Strict), f64.String(w.Optimized))}
	},

	// opt.level's answer is the paper's key under optsim's modelling
	// assumption, not a derivation: optsim.ForLevel turns on ContractFMA
	// at -O3 because it was written to, so the sweep can only find -O2.
	// Real compilers disagree. GCC 12 fuses a*b + c at no level on the
	// default x86-64 target, so -O3 is compliant there; with -mfma it
	// fuses at -O2 and -O3, so -O1 is the highest; in ISO mode
	// (-std=c11) it fuses nothing. The row's flags are those of the
	// strict evaluation of the first witness program that breaks the
	// next level up.
	"opt.level": func() quiz.KeyRow {
		progs := optsim.WitnessPrograms()
		l := optsim.HighestCompliantLevel(f64, progs, 800, 42)
		row := quiz.KeyRow{Answer: l.String(), Witness: fmt.Sprintf(
			"sweep over witness programs: %s is the highest compliant level; -O3 enables FMA contraction which changes results",
			l)}
		if l < optsim.O3 {
			for _, p := range progs {
				v := optsim.Check(f64, p, optsim.ForLevel(l+1), optsim.GenCorpus(f64, p, 800, 42))
				if !v.Compliant {
					row.Flags = strictFlags(f64, p, v.Witness.Inputs)
					break
				}
			}
		}
		return row
	},

	"opt.fastmath": func() quiz.KeyRow {
		p := expr.MustParse("(a + b) + c")
		v := optsim.Check(f64, p, optsim.FastMath(), optsim.GenCorpus(f64, p, 3000, 13))
		if !v.Compliant {
			w := v.Witness
			return quiz.KeyRow{Answer: "true", Flags: strictFlags(f64, p, w.Inputs), Witness: fmt.Sprintf(
				"witness a=%s b=%s c=%s: strict (a+b)+c = %s but reassociated evaluation gives %s (passes: %v)",
				f64.String(w.Inputs["a"]), f64.String(w.Inputs["b"]), f64.String(w.Inputs["c"]),
				f64.String(w.Strict), f64.String(w.Optimized), v.PassesApplied)}
		}
		return quiz.KeyRow{Answer: "false", Witness: "fast-math never changed a result (unexpected)"}
	},
}
