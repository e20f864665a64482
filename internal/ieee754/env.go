package ieee754

import "strings"

// RoundingMode selects one of the five IEEE 754 rounding-direction
// attributes.
type RoundingMode uint8

const (
	// NearestEven rounds to nearest, ties to even (the default mode).
	NearestEven RoundingMode = iota
	// NearestAway rounds to nearest, ties away from zero.
	NearestAway
	// TowardZero truncates.
	TowardZero
	// TowardPositive rounds toward +infinity.
	TowardPositive
	// TowardNegative rounds toward -infinity.
	TowardNegative
)

// String returns the IEEE 754 attribute name of the mode.
func (m RoundingMode) String() string {
	switch m {
	case NearestEven:
		return "roundTiesToEven"
	case NearestAway:
		return "roundTiesToAway"
	case TowardZero:
		return "roundTowardZero"
	case TowardPositive:
		return "roundTowardPositive"
	case TowardNegative:
		return "roundTowardNegative"
	}
	return "invalidRoundingMode"
}

// Flags is a bit set of exception flags. The first five are the IEEE 754
// standard exceptions; FlagDenormal is the non-standard x86-style
// denormal-operand indication, included because the paper's suspicion
// quiz asks about it.
type Flags uint8

const (
	// FlagInvalid: the operation had no usefully definable result
	// (0/0, inf-inf, sqrt of a negative, signaling NaN operand, ...).
	// The delivered result is a quiet NaN.
	FlagInvalid Flags = 1 << iota
	// FlagDivByZero: an exact infinite result from finite operands
	// (x/0 with x finite nonzero, log(0)-style poles).
	FlagDivByZero
	// FlagOverflow: the rounded result exceeded the finite range; the
	// delivered result saturates to infinity or the largest finite
	// value depending on the rounding mode.
	FlagOverflow
	// FlagUnderflow: the result was tiny (below the normal range) and
	// inexact.
	FlagUnderflow
	// FlagInexact: the result required rounding (the paper calls this
	// condition "Precision").
	FlagInexact
	// FlagDenormal: a subnormal number was consumed as an operand or
	// produced as a rounded result (also when FTZ then flushes it).
	// Non-standard; mirrors the x86 DE bit and the paper's "Denorm"
	// suspicion condition.
	FlagDenormal
)

// flagNames lists the flags in display order.
var flagNames = []struct {
	f    Flags
	name string
}{
	{FlagInvalid, "invalid"},
	{FlagDivByZero, "divbyzero"},
	{FlagOverflow, "overflow"},
	{FlagUnderflow, "underflow"},
	{FlagInexact, "inexact"},
	{FlagDenormal, "denormal"},
}

// String renders the set like "overflow|inexact"; the empty set renders
// as "none".
func (fl Flags) String() string {
	if fl == 0 {
		return "none"
	}
	var parts []string
	for _, fn := range flagNames {
		if fl&fn.f != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, "|")
}

// Has reports whether every flag in q is set in fl.
func (fl Flags) Has(q Flags) bool { return fl&q == q }

// Count returns the number of flags set.
func (fl Flags) Count() int {
	n := 0
	for _, fn := range flagNames {
		if fl&fn.f != 0 {
			n++
		}
	}
	return n
}

// AllFlags is the union of every flag this package can raise.
const AllFlags = FlagInvalid | FlagDivByZero | FlagOverflow | FlagUnderflow | FlagInexact | FlagDenormal

// OpEvent describes one completed arithmetic operation; it is delivered
// to Env.Observer when one is installed.
type OpEvent struct {
	Op     string // "add", "mul", "div", "sqrt", "fma", ...
	Format Format
	A, B,
	C uint64 // operands (unused trail as 0)
	NArgs  int
	Result uint64
	Raised Flags // flags raised by this operation alone
}

// Env is a floating point environment: rounding mode, sticky exception
// flags, and non-standard mode controls. The zero value is the default
// IEEE environment (round to nearest even, no flags, FTZ/DAZ off).
//
// Env is not safe for concurrent use; give each goroutine its own.
type Env struct {
	// Rounding is the rounding-direction attribute for all operations.
	Rounding RoundingMode

	// FTZ (flush to zero) replaces a subnormal rounded result with a
	// like-signed zero and raises underflow and inexact. A result that
	// needs no rounding because it is an operand (x ± 0) is delivered
	// as it is. Non-standard (x86 MXCSR.FTZ).
	FTZ bool
	// DAZ (denormals are zero) treats subnormal operands as
	// like-signed zeros. Non-standard (x86 MXCSR.DAZ).
	DAZ bool

	// Flags accumulates raised exceptions (sticky, like hardware
	// status bits); clear with ClearFlags.
	Flags Flags

	// LastRaised holds the flags raised by the most recent operation.
	LastRaised Flags

	// Observer, when non-nil, is invoked after every arithmetic
	// operation with its operands, result and raised flags.
	Observer func(OpEvent)

	raised Flags // accumulates during the current operation
}

// NewEnv returns an Env with the default IEEE 754 environment settings.
func NewEnv() *Env { return &Env{} }

// Clone returns an independent copy of the environment for use by
// another goroutine: the mode controls (rounding direction, FTZ, DAZ)
// and the sticky flags are carried over; the per-operation state and
// the Observer are not. The Observer is deliberately dropped because a
// shared callback would be invoked concurrently from every goroutine
// that holds a clone — install a fresh per-goroutine observer on the
// clone if events are needed.
//
// The one-Env-per-goroutine rule: an Env mutates internal state on
// every operation, so two goroutines must never share one. Clone the
// configured Env once per worker instead.
func (e *Env) Clone() *Env {
	return &Env{
		Rounding: e.Rounding,
		FTZ:      e.FTZ,
		DAZ:      e.DAZ,
		Flags:    e.Flags,
	}
}

// ClearFlags clears the sticky exception flags.
func (e *Env) ClearFlags() { e.Flags = 0 }

// TestFlags reports whether all flags in q are currently set.
func (e *Env) TestFlags(q Flags) bool { return e.Flags.Has(q) }

// raise records flags for the operation in progress.
func (e *Env) raise(f Flags) { e.raised |= f }

// begin resets per-operation state; each arithmetic entry point calls it
// exactly once.
func (e *Env) begin() { e.raised = 0 }

// finish commits per-operation flags into the sticky set, delivers the
// event to the Observer if one is installed, and returns the result for
// convenient tail calls. It takes scalar arguments rather than an
// OpEvent so that the unobserved hot path never materialises the event
// struct at all; unused operand slots are passed as 0.
func (e *Env) finish(op string, f Format, nargs int, a, b, c, r uint64) uint64 {
	e.LastRaised = e.raised
	e.Flags |= e.raised
	if e.Observer != nil {
		e.Observer(OpEvent{
			Op: op, Format: f, A: a, B: b, C: c,
			NArgs: nargs, Result: r, Raised: e.raised,
		})
	}
	return r
}

// daz applies denormals-are-zero to an operand encoding: when enabled and
// x is subnormal, it is replaced by a like-signed zero and the denormal
// flag is raised. When DAZ is off, a subnormal operand still raises the
// (non-standard) denormal-operand flag, mirroring x86's DE bit.
func (e *Env) daz(f Format, x uint64) uint64 {
	if !f.IsSubnormal(x) {
		return x
	}
	e.raise(FlagDenormal)
	if e.DAZ {
		return f.Zero(f.SignBit(x))
	}
	return x
}
