package ieee754

import "testing"

// Hot-path microbenchmarks for the three core arithmetic operations on
// binary64. ReportAllocs guards their zero-allocation contract.

var benchSink uint64

func benchOperands() (a, b, c uint64) {
	f := Binary64
	var e Env
	return f.FromFloat64(&e, 1.5000000001), f.FromFloat64(&e, 2.9999999997), f.FromFloat64(&e, 0.1)
}

func BenchmarkAddBinary64(b *testing.B) {
	e := NewEnv()
	x, y, _ := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Binary64.Add(e, x, y)
	}
}

func BenchmarkMulBinary64(b *testing.B) {
	e := NewEnv()
	x, y, _ := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Binary64.Mul(e, x, y)
	}
}

func BenchmarkFMABinary64(b *testing.B) {
	e := NewEnv()
	x, y, z := benchOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Binary64.FMA(e, x, y, z)
	}
}
