// Package quiz defines the paper's concrete survey instrument: the
// background questionnaire, the 15-question core quiz, the 4-question
// optimization quiz, and the 5-item suspicion quiz.
//
// Every quiz question carries an executable oracle: the "correct
// answer" is computed by running the ieee754 softfloat (and, for the
// optimization quiz, the optsim compiler model) rather than read from a
// hard-coded answer key. Each oracle returns a witness string — a
// concrete counterexample or a summary of the property check — that the
// harness can print.
package quiz

import (
	"fmt"
	"math"
	"math/rand"

	"fpstudy/internal/ieee754"
)

// OracleResult is the outcome of mechanically evaluating a quiz
// assertion.
type OracleResult struct {
	// Holds is whether the assertion is true of IEEE 754 arithmetic.
	Holds bool
	// Witness explains why: a counterexample for false assertions, a
	// proof/check summary for true ones.
	Witness string
}

// CoreQuestion is one assertion of the core quiz.
type CoreQuestion struct {
	// ID is the stable question identifier ("core.commutativity").
	ID string
	// Label is the paper's name for the question.
	Label string
	// Prompt is the participant-facing assertion, phrased (per the
	// paper's design) without IEEE terminology to avoid prompting.
	Prompt string
	// Snippet is the C-syntax code fragment the assertion refers to.
	Snippet string
	// Oracle evaluates the assertion on the softfloat.
	Oracle func() OracleResult
}

// CorrectAnswer returns the survey answer string a perfectly informed
// participant gives.
func (q CoreQuestion) CorrectAnswer() string {
	if q.Oracle().Holds {
		return "true"
	}
	return "false"
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

// CoreQuestions returns the 15 core quiz questions in the paper's
// order.
func CoreQuestions() []CoreQuestion {
	return []CoreQuestion{
		{
			ID:      "core.commutativity",
			Label:   "Commutativity",
			Prompt:  "Assuming x and y hold values that are not the result of invalid operations, the assertion never fails.",
			Snippet: "double x, y;\nassert(x + y == y + x);",
			Oracle: func() OracleResult {
				e := oracleEnv()
				rng := rand.New(rand.NewSource(101))
				for i := 0; i < 50000; i++ {
					a, b := sampleNonNaN(rng), sampleNonNaN(rng)
					l := f64.Add(&e, a, b)
					r := f64.Add(&e, b, a)
					if l != r && !(f64.IsNaN(l) && f64.IsNaN(r)) {
						return OracleResult{false, fmt.Sprintf(
							"counterexample: x=%s y=%s", f64.String(a), f64.String(b))}
					}
				}
				return OracleResult{true,
					"holds on 50,000 sampled non-NaN pairs including infinities and subnormals"}
			},
		},
		{
			ID:      "core.associativity",
			Label:   "Associativity",
			Prompt:  "Assuming x, y, and z hold values that are not the result of invalid operations, the assertion never fails.",
			Snippet: "double x, y, z;\nassert((x + y) + z == x + (y + z));",
			Oracle: func() OracleResult {
				e := oracleEnv()
				one := fb(1)
				tiny := fb(math.Ldexp(1, -53))
				l := f64.Add(&e, f64.Add(&e, one, tiny), tiny)
				r := f64.Add(&e, one, f64.Add(&e, tiny, tiny))
				if l != r {
					return OracleResult{false, fmt.Sprintf(
						"counterexample: x=1, y=z=2^-53: (x+y)+z = %s but x+(y+z) = %s",
						f64.Hex(l), f64.Hex(r))}
				}
				return OracleResult{true, "no counterexample found (unexpected)"}
			},
		},
		{
			ID:      "core.distributivity",
			Label:   "Distributivity",
			Prompt:  "Assuming x, y, and z hold values that are not the result of invalid operations, the assertion never fails.",
			Snippet: "double x, y, z;\nassert(x*(y + z) == x*y + x*z);",
			Oracle: func() OracleResult {
				e := oracleEnv()
				rng := rand.New(rand.NewSource(103))
				for i := 0; i < 100000; i++ {
					x, y, z := sampleNonNaN(rng), sampleNonNaN(rng), sampleNonNaN(rng)
					l := f64.Mul(&e, x, f64.Add(&e, y, z))
					r := f64.Add(&e, f64.Mul(&e, x, y), f64.Mul(&e, x, z))
					if l != r && !f64.IsNaN(l) && !f64.IsNaN(r) {
						return OracleResult{false, fmt.Sprintf(
							"counterexample: x=%s y=%s z=%s", f64.String(x), f64.String(y), f64.String(z))}
					}
				}
				return OracleResult{true, "no counterexample found (unexpected)"}
			},
		},
		{
			ID:      "core.ordering",
			Label:   "Ordering",
			Prompt:  "Assuming x and y hold values that are not the result of invalid operations, the assertion never fails.",
			Snippet: "double x, y;\nassert((x + y) - x == y);",
			Oracle: func() OracleResult {
				e := oracleEnv()
				x, y := fb(1e16), fb(1)
				got := f64.Sub(&e, f64.Add(&e, x, y), x)
				if got != y {
					return OracleResult{false, fmt.Sprintf(
						"counterexample: x=1e16 y=1: (x+y)-x = %s, not 1", f64.String(got))}
				}
				return OracleResult{true, "no counterexample found (unexpected)"}
			},
		},
		{
			ID:      "core.identity",
			Label:   "Identity",
			Prompt:  "Whatever value x holds, the assertion never fails.",
			Snippet: "double x;\nassert(x == x);",
			Oracle: func() OracleResult {
				e := oracleEnv()
				n := f64.QNaN()
				if !f64.Eq(&e, n, n) {
					return OracleResult{false,
						"counterexample: the result of 0.0/0.0 compares unequal to itself"}
				}
				return OracleResult{true, "no counterexample found (unexpected)"}
			},
		},
		{
			ID:      "core.negzero",
			Label:   "Negative Zero",
			Prompt:  "It is possible for x and y to both hold zero values and yet the assertion fails.",
			Snippet: "double x = /* a zero */, y = /* a zero */;\nassert(x == y);",
			Oracle: func() OracleResult {
				e := oracleEnv()
				zeros := []uint64{f64.Zero(false), f64.Zero(true)}
				for _, a := range zeros {
					for _, b := range zeros {
						if !f64.Eq(&e, a, b) {
							return OracleResult{true, fmt.Sprintf(
								"zeros %s and %s compare unequal", f64.String(a), f64.String(b))}
						}
					}
				}
				return OracleResult{false,
					"checked all zero encodings: +0 and -0 always compare equal"}
			},
		},
		{
			ID:      "core.square",
			Label:   "Square",
			Prompt:  "Assuming x holds a value that is not the result of an invalid operation, the assertion never fails.",
			Snippet: "double x;\nassert(x*x >= 0.0);",
			Oracle: func() OracleResult {
				e := oracleEnv()
				rng := rand.New(rand.NewSource(107))
				for i := 0; i < 50000; i++ {
					x := sampleNonNaN(rng)
					sq := f64.Mul(&e, x, x)
					if !f64.Ge(&e, sq, f64.Zero(false)) {
						return OracleResult{false, fmt.Sprintf(
							"counterexample: x=%s gives x*x=%s", f64.String(x), f64.String(sq))}
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
						return OracleResult{false, fmt.Sprintf(
							"binary16 counterexample: %#04x", x)}
					}
				}
				return OracleResult{true,
					"holds exhaustively in binary16 and on 50,000 binary64 samples (unlike integer arithmetic, where x*x can wrap negative)"}
			},
		},
		{
			ID:      "core.overflow",
			Label:   "Overflow",
			Prompt:  "When a computation on large positive values exceeds the largest representable value, the result wraps around to the negative range, as in integer arithmetic.",
			Snippet: "double x = DBL_MAX;\nx = x * 2.0;\n/* x is now negative */",
			Oracle: func() OracleResult {
				e := oracleEnv()
				r := f64.Mul(&e, f64.MaxFinite(false), fb(2))
				if f64.SignBit(r) {
					return OracleResult{true, "overflow wrapped to a negative value"}
				}
				return OracleResult{false, fmt.Sprintf(
					"DBL_MAX*2 = %s: floating point overflow saturates at infinity instead of wrapping",
					f64.String(r))}
			},
		},
		{
			ID:      "core.divzero",
			Label:   "Divide By Zero",
			Prompt:  "After this statement executes, x holds a value that is not the result of an invalid operation (i.e., arithmetic on it behaves like arithmetic on an ordinary value).",
			Snippet: "double x = 1.0/0.0;",
			Oracle: func() OracleResult {
				e := oracleEnv()
				r := f64.Div(&e, fb(1), fb(0))
				if f64.IsNaN(r) {
					return OracleResult{false, "1.0/0.0 produced a NaN"}
				}
				return OracleResult{true, fmt.Sprintf(
					"1.0/0.0 = %s: an infinity, which can propagate to output disguised as an ordinary number",
					f64.String(r))}
			},
		},
		{
			ID:      "core.zerodivzero",
			Label:   "Zero Divide By Zero",
			Prompt:  "After this statement executes, x holds a value that is not the result of an invalid operation.",
			Snippet: "double x = 0.0/0.0;",
			Oracle: func() OracleResult {
				e := oracleEnv()
				r := f64.Div(&e, fb(0), fb(0))
				if !f64.IsNaN(r) {
					return OracleResult{true, fmt.Sprintf("0.0/0.0 = %s", f64.String(r))}
				}
				return OracleResult{false,
					"0.0/0.0 is a NaN, which propagates visibly to the output"}
			},
		},
		{
			ID:      "core.satplus",
			Label:   "Saturation Plus",
			Prompt:  "It is possible for x to hold a value such that the assertion fails.",
			Snippet: "double x;\nassert(x + 1.0 != x);",
			Oracle: func() OracleResult {
				e := oracleEnv()
				inf := f64.Inf(false)
				if f64.Eq(&e, f64.Add(&e, inf, fb(1)), inf) {
					if big := fb(1e30); f64.Eq(&e, f64.Add(&e, big, fb(1)), big) {
						return OracleResult{true,
							"x = infinity gives x+1 == x (saturation); so does x = 1e30 (absorption)"}
					}
					return OracleResult{true, "x = infinity gives x+1 == x (saturation)"}
				}
				return OracleResult{false, "no saturating value found (unexpected)"}
			},
		},
		{
			ID:      "core.satminus",
			Label:   "Saturation Minus",
			Prompt:  "It is possible for x to hold a value such that the assertion fails.",
			Snippet: "double x;\nassert(x - 1.0 != x);",
			Oracle: func() OracleResult {
				e := oracleEnv()
				inf := f64.Inf(false)
				if f64.Eq(&e, f64.Sub(&e, inf, fb(1)), inf) {
					return OracleResult{true,
						"x = infinity gives x-1 == x: there is no backing off from infinity"}
				}
				return OracleResult{false, "no saturating value found (unexpected)"}
			},
		},
		{
			ID:      "core.denormprec",
			Label:   "Denormal Precision",
			Prompt:  "Representable values very close to zero have fewer significant digits available than values further from zero.",
			Snippet: "double x = 1e-310; /* vs. */ double y = 1e-300;",
			Oracle: func() OracleResult {
				// In the subnormal range, the ulp stays fixed while the
				// value shrinks, so relative precision degrades down to
				// a single significant bit at the minimum subnormal.
				e := oracleEnv()
				// 1e-310 is subnormal in binary64; adding a unit in the
				// last place is a far larger relative change than for a
				// normal number.
				x := fb(1e-310)
				if !f64.IsSubnormal(x) {
					return OracleResult{false, "1e-310 unexpectedly normal"}
				}
				next := x + 1 // next representable
				rel := (f64.ToFloat64(next) - f64.ToFloat64(x)) / f64.ToFloat64(x)
				_ = e
				const normalEps = 0x1p-52 // relative ulp of a normal number
				if rel > 10*normalEps {
					return OracleResult{true, fmt.Sprintf(
						"at 1e-310 one ulp is a %.1e relative step (vs ~1e-16 for normal numbers): gradual underflow trades precision for range",
						rel)}
				}
				return OracleResult{false, "subnormals show full precision (unexpected)"}
			},
		},
		{
			ID:      "core.opprec",
			Label:   "Operation Precision",
			Prompt:  "The result of an arithmetic operation can have less precision (fewer correct significant digits) than either of its operands.",
			Snippet: "double z = x + y; /* z may be less precise than x or y */",
			Oracle: func() OracleResult {
				e := oracleEnv()
				r := f64.Add(&e, fb(0.1), fb(0.2))
				if e.LastRaised.Has(ieee754.FlagInexact) {
					return OracleResult{true,
						"0.1 + 0.2 required rounding (the true sum is not representable), losing precision relative to the operands"}
				}
				return OracleResult{false, fmt.Sprintf(
					"0.1+0.2 = %s was exact (unexpected)", f64.String(r))}
			},
		},
		{
			ID:      "core.sigexc",
			Label:   "Exception Signal",
			Prompt:  "If any operation in a program produces an exceptional result (such as the result of dividing by zero or an invalid operation), the program is informed by default, e.g. via a signal that terminates it.",
			Snippet: "double x = 0.0/0.0; /* program receives SIGFPE here? */",
			Oracle: func() OracleResult {
				// By default IEEE exceptions only set sticky status
				// flags; execution continues with the substituted
				// result. Demonstrate: run an invalid op and observe
				// that control flow proceeds and only a flag records it.
				e := oracleEnv()
				r := f64.Div(&e, fb(0), fb(0))
				executedPast := true // we are still running
				if executedPast && e.Flags.Has(ieee754.FlagInvalid) && f64.IsNaN(r) {
					return OracleResult{false,
						"0.0/0.0 merely set the sticky invalid flag and returned NaN; by default no trap or signal is delivered (unlike integer division by zero)"}
				}
				return OracleResult{true, "a signal was delivered (unexpected)"}
			},
		},
	}
}

// CoreQuestionByID returns the core question with the given ID.
func CoreQuestionByID(id string) (CoreQuestion, bool) {
	for _, q := range CoreQuestions() {
		if q.ID == id {
			return q, true
		}
	}
	return CoreQuestion{}, false
}
