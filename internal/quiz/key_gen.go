// Code generated by go run ../../scripts/genkey.go; DO NOT EDIT.

package quiz

import "fpstudy/internal/ieee754"

// answerKey is the quiz's answer key, core questions then optimization
// questions in the paper's order, as the oracles in internal/oracle
// derive it. Regenerate it with go generate; the oracle package's test
// fails if a row differs from what its oracle derives.
var answerKey = [...]KeyRow{
	{
		ID:      "core.commutativity",
		Answer:  "true",
		Witness: "holds on 50,000 sampled non-NaN pairs including infinities and subnormals",
		Flags:   ieee754.FlagInvalid | ieee754.FlagInexact | ieee754.FlagDenormal,
	},
	{
		ID:      "core.associativity",
		Answer:  "false",
		Witness: "counterexample: x=1, y=z=2^-53: (x+y)+z = 0x1p+0 but x+(y+z) = 0x1.0000000000001p+0",
		Flags:   ieee754.FlagInexact,
	},
	{
		ID:      "core.distributivity",
		Answer:  "false",
		Witness: "counterexample: x=371 y=0.9455928820779165 z=-145",
		Flags:   ieee754.FlagInvalid | ieee754.FlagUnderflow | ieee754.FlagInexact | ieee754.FlagDenormal,
	},
	{
		ID:      "core.ordering",
		Answer:  "false",
		Witness: "counterexample: x=1e16 y=1: (x+y)-x = 0, not 1",
		Flags:   ieee754.FlagInexact,
	},
	{
		ID:      "core.identity",
		Answer:  "false",
		Witness: "counterexample: the result of 0.0/0.0 compares unequal to itself",
	},
	{
		ID:      "core.negzero",
		Answer:  "false",
		Witness: "checked all zero encodings: +0 and -0 always compare equal",
	},
	{
		ID:      "core.square",
		Answer:  "true",
		Witness: "holds exhaustively in binary16 and on 50,000 binary64 samples (unlike integer arithmetic, where x*x can wrap negative)",
		Flags:   ieee754.FlagOverflow | ieee754.FlagUnderflow | ieee754.FlagInexact | ieee754.FlagDenormal,
	},
	{
		ID:      "core.overflow",
		Answer:  "false",
		Witness: "DBL_MAX*2 = +Inf: floating point overflow saturates at infinity instead of wrapping",
		Flags:   ieee754.FlagOverflow | ieee754.FlagInexact,
	},
	{
		ID:      "core.divzero",
		Answer:  "true",
		Witness: "1.0/0.0 = +Inf: an infinity, which can propagate to output disguised as an ordinary number",
		Flags:   ieee754.FlagDivByZero,
	},
	{
		ID:      "core.zerodivzero",
		Answer:  "false",
		Witness: "0.0/0.0 is a NaN, which propagates visibly to the output",
		Flags:   ieee754.FlagInvalid,
	},
	{
		ID:      "core.satplus",
		Answer:  "true",
		Witness: "x = infinity gives x+1 == x (saturation); so does x = 1e30 (absorption)",
		Flags:   ieee754.FlagInexact,
	},
	{
		ID:      "core.satminus",
		Answer:  "true",
		Witness: "x = infinity gives x-1 == x: there is no backing off from infinity",
	},
	{
		ID:      "core.denormprec",
		Answer:  "true",
		Witness: "at 1e-310 one ulp is a 4.9e-14 relative step (vs ~1e-16 for normal numbers): gradual underflow trades precision for range",
		HostFPU: true,
	},
	{
		ID:      "core.opprec",
		Answer:  "true",
		Witness: "0.1 + 0.2 required rounding (the true sum is not representable), losing precision relative to the operands",
		Flags:   ieee754.FlagInexact,
	},
	{
		ID:      "core.sigexc",
		Answer:  "false",
		Witness: "0.0/0.0 merely set the sticky invalid flag and returned NaN; by default no trap or signal is delivered (unlike integer division by zero)",
		Flags:   ieee754.FlagInvalid,
	},
	{
		ID:      "opt.madd",
		Answer:  "false",
		Witness: "witness x=y=1+2^-30, z=-1: fused gives 0x1.00000002p-29, separate gives 0x1p-29; fused multiply-add entered the standard only in the 2008 revision",
		Flags:   ieee754.FlagInexact,
	},
	{
		ID:      "opt.ftz",
		Answer:  "false",
		Witness: "witness a=-395.1933472268852 b=2.74757773814117e-309: IEEE gives -1.0858244431020839e-306, FTZ/DAZ gives -0 — gradual underflow is required by the standard",
		Flags:   ieee754.FlagInexact | ieee754.FlagDenormal,
	},
	// -O2 is the paper's key under optsim's modelling assumption, not a
	// derivation: optsim.ForLevel turns on ContractFMA at -O3. GCC 12 is
	// compliant at -O3 without an FMA target, highest at -O1 with -mfma,
	// and fuses nothing in ISO mode.
	{
		ID:      "opt.level",
		Answer:  "-O2",
		Witness: "sweep over witness programs: -O2 is the highest compliant level; -O3 enables FMA contraction which changes results",
		Flags:   ieee754.FlagInexact | ieee754.FlagDenormal,
	},
	{
		ID:      "opt.fastmath",
		Answer:  "true",
		Witness: "witness a=1.463508050410146e-308 b=2.2250738585072014e-308 c=1.949757348395071e-308: strict (a+b)+c = 5.638339257312418e-308 but reassociated evaluation gives 2.2250738585072014e-308 (passes: [reassociate])",
		Flags:   ieee754.FlagInexact | ieee754.FlagDenormal,
	},
}
