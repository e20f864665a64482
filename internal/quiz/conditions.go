package quiz

import "fpstudy/internal/ieee754"

// Condition identifies one of the suspicion quiz's five exceptional
// conditions, in the paper's order.
type Condition int

const (
	Overflow Condition = iota
	Underflow
	Precision // the IEEE inexact exception
	Invalid
	Denorm
	numConditions
)

// Conditions lists all five conditions in quiz order.
func Conditions() []Condition {
	return []Condition{Overflow, Underflow, Precision, Invalid, Denorm}
}

// String returns the paper's name for the condition.
func (c Condition) String() string {
	switch c {
	case Overflow:
		return "Overflow"
	case Underflow:
		return "Underflow"
	case Precision:
		return "Precision"
	case Invalid:
		return "Invalid"
	case Denorm:
		return "Denorm"
	}
	return "invalidCondition"
}

// Flag maps the condition to its ieee754 exception flag.
func (c Condition) Flag() ieee754.Flags {
	switch c {
	case Overflow:
		return ieee754.FlagOverflow
	case Underflow:
		return ieee754.FlagUnderflow
	case Precision:
		return ieee754.FlagInexact
	case Invalid:
		return ieee754.FlagInvalid
	case Denorm:
		return ieee754.FlagDenormal
	}
	return 0
}

// GroundTruthSuspicion is the paper's "arguably reasonable ranking" of
// how suspicious each condition should make a developer, on the quiz's
// 1-5 Likert scale: Invalid (NaN) by far the most suspicious, then
// Overflow, then the remaining three.
func (c Condition) GroundTruthSuspicion() int {
	switch c {
	case Invalid:
		return 5
	case Overflow:
		return 4
	case Underflow:
		return 2
	case Denorm:
		return 2
	case Precision:
		return 1
	}
	return 0
}
