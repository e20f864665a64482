// Package expr provides a small arithmetic expression IR evaluated on
// the ieee754 softfloat. It is the substrate for the compiler
// optimization simulator (internal/optsim) and for quiz-question
// witnesses.
//
// Expressions are pure trees over named variables and decimal literals,
// with the operators +, -, *, /, unary minus, sqrt(x), and fma(x,y,z).
package expr

import (
	"fmt"

	"fpstudy/internal/ieee754"
)

// Node is an expression tree node.
type Node interface {
	isNode()
	// String renders the node as parseable source.
	String() string
}

// Lit is a numeric literal. It carries a float64 and is converted to
// the evaluation format at evaluation time (flag-free).
type Lit struct{ V float64 }

// Var is a reference to a named input.
type Var struct{ Name string }

// UnaryOp enumerates unary operators.
type UnaryOp uint8

const (
	OpNeg UnaryOp = iota
	OpSqrt
)

// Unary applies a unary operator.
type Unary struct {
	Op UnaryOp
	X  Node
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
)

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	X, Y Node
}

// FMA is a fused multiply-add node: X*Y + Z with one rounding. It never
// appears in parsed source except via fma(...); the optimizer introduces
// it by contraction.
type FMA struct{ X, Y, Z Node }

func (Lit) isNode()    {}
func (Var) isNode()    {}
func (Unary) isNode()  {}
func (Binary) isNode() {}
func (FMA) isNode()    {}

func (l Lit) String() string { return trimFloat(l.V) }
func (v Var) String() string { return v.Name }

func (u Unary) String() string {
	switch u.Op {
	case OpNeg:
		return "-" + paren(u.X, true)
	case OpSqrt:
		return "sqrt(" + u.X.String() + ")"
	}
	return "?"
}

func (b Binary) String() string {
	op := map[BinOp]string{OpAdd: " + ", OpSub: " - ", OpMul: "*", OpDiv: "/"}[b.Op]
	lo := b.Op == OpAdd || b.Op == OpSub
	return paren(b.X, !lo) + op + paren(b.Y, true)
}

func (f FMA) String() string {
	return "fma(" + f.X.String() + ", " + f.Y.String() + ", " + f.Z.String() + ")"
}

// paren wraps x in parentheses when it is a binary node (conservative
// but unambiguous when needed).
func paren(x Node, need bool) string {
	if _, ok := x.(Binary); ok && need {
		return "(" + x.String() + ")"
	}
	return x.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// Env binds variable names to encodings for evaluation.
type Env map[string]uint64

// Eval evaluates n in format f under the floating point environment fe,
// with variables bound by vars. Unbound variables evaluate to a quiet
// NaN (and the evaluation is still well defined).
func Eval(f ieee754.Format, fe *ieee754.Env, n Node, vars Env) uint64 {
	switch t := n.(type) {
	case Lit:
		// Literal materialization is exact from the source's
		// perspective: use a scratch environment so constant rounding
		// does not raise application-visible flags.
		var scratch ieee754.Env
		scratch.Rounding = fe.Rounding
		return f.FromFloat64(&scratch, t.V)
	case Var:
		if b, ok := vars[t.Name]; ok {
			return b
		}
		return f.QNaN()
	case Unary:
		x := Eval(f, fe, t.X, vars)
		switch t.Op {
		case OpNeg:
			return f.Neg(x)
		case OpSqrt:
			return f.Sqrt(fe, x)
		}
	case Binary:
		x := Eval(f, fe, t.X, vars)
		y := Eval(f, fe, t.Y, vars)
		switch t.Op {
		case OpAdd:
			return f.Add(fe, x, y)
		case OpSub:
			return f.Sub(fe, x, y)
		case OpMul:
			return f.Mul(fe, x, y)
		case OpDiv:
			return f.Div(fe, x, y)
		}
	case FMA:
		x := Eval(f, fe, t.X, vars)
		y := Eval(f, fe, t.Y, vars)
		z := Eval(f, fe, t.Z, vars)
		return f.FMA(fe, x, y, z)
	}
	return f.QNaN()
}

// Vars returns the sorted set of variable names referenced by n.
func Vars(n Node) []string {
	set := map[string]bool{}
	collectVars(n, set)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	// insertion sort: tiny n
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func collectVars(n Node, set map[string]bool) {
	switch t := n.(type) {
	case Var:
		set[t.Name] = true
	case Unary:
		collectVars(t.X, set)
	case Binary:
		collectVars(t.X, set)
		collectVars(t.Y, set)
	case FMA:
		collectVars(t.X, set)
		collectVars(t.Y, set)
		collectVars(t.Z, set)
	}
}

// Equal reports structural equality of two expression trees.
func Equal(a, b Node) bool {
	switch x := a.(type) {
	case Lit:
		y, ok := b.(Lit)
		return ok && x.V == y.V
	case Var:
		y, ok := b.(Var)
		return ok && x.Name == y.Name
	case Unary:
		y, ok := b.(Unary)
		return ok && x.Op == y.Op && Equal(x.X, y.X)
	case Binary:
		y, ok := b.(Binary)
		return ok && x.Op == y.Op && Equal(x.X, y.X) && Equal(x.Y, y.Y)
	case FMA:
		y, ok := b.(FMA)
		return ok && Equal(x.X, y.X) && Equal(x.Y, y.Y) && Equal(x.Z, y.Z)
	}
	return false
}
