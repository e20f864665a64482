// Package fpstudy reproduces "Do Developers Understand IEEE Floating
// Point?" (Dinda & Hetland, IPDPS 2018) as a runnable system: a
// from-scratch IEEE 754 softfloat oracle, a compiler-optimization
// simulator, the paper's survey instrument with an answer key derived
// by executing both, a calibrated synthetic respondent population, and the
// analysis pipeline that regenerates every figure in the paper.
//
// This package is the public facade: it re-exports the main types and
// entry points from the internal packages. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Quick start:
//
//	study := fpstudy.DefaultStudy()
//	results := study.Run()
//	fmt.Println(results.Figure12().String())
//
// Or grade yourself against the answer key, or re-derive a row of it
// by running the question's oracle:
//
//	for _, q := range fpstudy.CoreQuestions() {
//	    fmt.Println(q.Snippet, q.Prompt)
//	    row, _ := fpstudy.RunOracle(q.ID)
//	    fmt.Println("answer:", row.Answer, "—", row.Witness, "—", row.Flags)
//	}
package fpstudy

import (
	"fpstudy/internal/core"
	"fpstudy/internal/expr"
	"fpstudy/internal/ieee754"
	"fpstudy/internal/optsim"
	"fpstudy/internal/oracle"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
	"fpstudy/internal/survey"
)

// --- IEEE 754 softfloat (internal/ieee754) ---

// Format describes a binary interchange format.
type Format = ieee754.Format

// Env is a floating point environment: rounding mode, sticky flags, the
// flags the last operation raised, and FTZ/DAZ controls.
type Env = ieee754.Env

// Flags is a set of exception flags.
type Flags = ieee754.Flags

// RoundingMode selects a rounding-direction attribute.
type RoundingMode = ieee754.RoundingMode

// The three standard interchange formats, plus the ML-oriented
// bfloat16. Custom formats can be built directly: Format{ExpBits: 4,
// FracBits: 3, Name: "fp8"}.
var (
	Binary16 = ieee754.Binary16
	Binary32 = ieee754.Binary32
	Binary64 = ieee754.Binary64
	Bfloat16 = ieee754.Bfloat16
)

// Exception flags (the paper's suspicion-quiz conditions map to these).
const (
	FlagInvalid   = ieee754.FlagInvalid
	FlagDivByZero = ieee754.FlagDivByZero
	FlagOverflow  = ieee754.FlagOverflow
	FlagUnderflow = ieee754.FlagUnderflow
	FlagInexact   = ieee754.FlagInexact
	FlagDenormal  = ieee754.FlagDenormal
)

// Rounding modes.
const (
	NearestEven    = ieee754.NearestEven
	NearestAway    = ieee754.NearestAway
	TowardZero     = ieee754.TowardZero
	TowardPositive = ieee754.TowardPositive
	TowardNegative = ieee754.TowardNegative
)

// --- Expressions and the optimization simulator ---

// ExprNode is an arithmetic expression tree node.
type ExprNode = expr.Node

// ParseExpr parses an arithmetic expression ("a*(b + c) - sqrt(d)").
func ParseExpr(src string) (ExprNode, error) { return expr.Parse(src) }

// OptConfig is a compiler/hardware optimization configuration.
type OptConfig = optsim.Config

// OptLevel is a -O level.
type OptLevel = optsim.Level

// OptVerdict is the result of a compliance check.
type OptVerdict = optsim.Verdict

// OptForLevel returns the configuration for -O0..-O3.
func OptForLevel(l OptLevel) OptConfig { return optsim.ForLevel(l) }

// FastMath returns the -ffast-math configuration.
func FastMath() OptConfig { return optsim.FastMath() }

// CheckCompliance evaluates an expression under strict IEEE semantics
// and under a configuration, reporting whether any corpus input
// diverges.
func CheckCompliance(f Format, n ExprNode, cfg OptConfig, corpusSize int, seed int64) OptVerdict {
	return optsim.Check(f, n, cfg, optsim.GenCorpus(f, n, corpusSize, seed))
}

// --- Suspicion quiz conditions ---

// Condition is a suspicion-quiz exceptional condition.
type Condition = quiz.Condition

// --- The survey instrument and quiz ---

// Instrument returns the paper's survey (background, core quiz,
// optimization quiz, suspicion quiz).
func Instrument() *survey.Instrument { return quiz.Instrument() }

// CoreQuestion is one core-quiz assertion.
type CoreQuestion = quiz.CoreQuestion

// OptQuestion is one optimization-quiz question.
type OptQuestion = quiz.OptQuestion

// KeyRow is one question's row of the answer key: the answer, a witness
// string and the exception flags the witness computation raised.
type KeyRow = quiz.KeyRow

// RunOracle executes the oracle of the question with the given ID —
// softfloat property checks, and for the optimization quiz the compiler
// model — and returns the answer-key row it derives.
func RunOracle(id string) (KeyRow, bool) { return oracle.Run(id) }

// CoreQuestions returns the 15 core questions in the paper's order.
func CoreQuestions() []CoreQuestion { return quiz.CoreQuestions() }

// OptQuestions returns the 4 optimization questions.
func OptQuestions() []OptQuestion { return quiz.OptQuestions() }

// --- Population generation and the study pipeline ---

// Population is a generated synthetic cohort.
type Population = respondent.Population

// GenerateMain generates the main cohort (the paper's 199 developers)
// into columns, on GOMAXPROCS workers; the cohort is the same at any
// worker count.
func GenerateMain(seed int64, n int) *Population {
	return respondent.GenerateMainColumnar(seed, n, 0, nil, respondent.Instrumentation{})
}

// Study configures a reproduction run.
type Study = core.Study

// Results holds a completed run with figure renderers.
type Results = core.Results

// Claim is one checked headline finding.
type Claim = core.Claim

// DefaultStudy mirrors the paper's cohort sizes (n=199 main, n=52
// students) with the default seed.
func DefaultStudy() Study { return core.DefaultStudy() }
