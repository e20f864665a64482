package query_test

import (
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
)

// BenchmarkKernels times each predicate, keyer, value and aggregate
// kernel alone over a generated n=100,000 cohort, one worker, in
// memory and streamed from an encoded shard, and reports ns/row. A
// kernel pass is a ScanBlocks pass binding only the kernel's columns,
// so the shard rows include reading and decoding those columns. The
// aggregate rows run query.Run with no filter: they include the
// keyer and the value they aggregate.
func BenchmarkKernels(b *testing.B) {
	const n = 100_000
	d := respondent.GenerateMainColumnar(42, n, 0, nil, respondent.Instrumentation{}).Cols
	mem, shard := sources(b, d)
	s := d.Schema
	tf := s.MustColumnIndex(quiz.CoreQuestions()[0].ID)
	lik := s.MustColumnIndex("susp.invalid")
	sgl := s.MustColumnIndex(quiz.BGArea)
	mul := s.MustColumnIndex(quiz.BGInformal)
	score, err := quiz.QueryValue(s, "core.score")
	if err != nil {
		b.Fatal(err)
	}
	likKey, err := query.KeyerFor(s, lik)
	if err != nil {
		b.Fatal(err)
	}
	sglKey, err := query.KeyerFor(s, sgl)
	if err != nil {
		b.Fatal(err)
	}

	type kernel struct {
		name string
		cols []int
		run  func(blk *query.Block)
	}
	var kernels []kernel
	sel := query.NewBitmap(query.BlockRows)
	for _, p := range []struct {
		name string
		p    query.Predicate
	}{
		{"U8Eq", query.U8Eq{Col: tf, Code: colstore.TFTrue}},
		{"U8Ne", query.U8Ne{Col: tf, Code: colstore.TFFalse}},
		{"U8Range", query.U8Range{Col: lik, Lo: 2, Hi: 4}},
		{"I32Set", query.I32SetOf(sgl, 1, 3)},
		{"I32Ne", query.I32Ne{Col: sgl, Code: 2}},
		{"U64Any", query.U64Any{Col: mul, Mask: 0b101}},
		{"U64All", query.U64All{Col: mul, Mask: 0b11}},
	} {
		kernels = append(kernels, kernel{"pred/" + p.name, p.p.Columns(), func(blk *query.Block) {
			sel.Reset(blk.N)
			p.p.Apply(blk, sel)
		}})
	}
	keys := make([]int32, query.BlockRows)
	for _, k := range []struct {
		name string
		k    query.Keyer
	}{
		{"TFKey", query.TFKey{Col: tf}},
		{"LikertKey", likKey},
		{"SingleKey", sglKey},
	} {
		kernels = append(kernels, kernel{"key/" + k.name, k.k.Columns(), func(blk *query.Block) {
			k.k.Keys(blk, keys[:blk.N])
		}})
	}
	vals, ok := make([]uint8, query.BlockRows), query.NewBitmap(query.BlockRows)
	for _, v := range []struct {
		name string
		v    query.Value
	}{
		{"LikertValue", query.LikertValue{Col: lik}},
		{"core.score", score},
	} {
		kernels = append(kernels, kernel{"value/" + v.name, v.v.Columns(), func(blk *query.Block) {
			v.v.Gather(blk, vals[:blk.N], ok)
		}})
	}

	aggs := []struct {
		name string
		q    query.Query
	}{
		{"count", query.Query{}},
		{"count-by", query.Query{Key: sglKey}},
		{"mean", query.Query{Values: []query.Value{query.LikertValue{Col: lik}}}},
		{"mean-by", query.Query{Key: sglKey, Values: []query.Value{query.LikertValue{Col: lik}}}},
		{"score-by", query.Query{Key: sglKey, Values: []query.Value{score}}},
	}

	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
	}
	for _, src := range []struct {
		name string
		src  query.Source
	}{{"mem", mem}, {"shard", shard}} {
		for _, k := range kernels {
			b.Run(src.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := query.ScanBlocks(src.src, k.cols, 1, func(_ int, blk *query.Block) { k.run(blk) }); err != nil {
						b.Fatal(err)
					}
				}
				perRow(b)
			})
		}
		for _, a := range aggs {
			b.Run(src.name+"/agg/"+a.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := query.Run(src.src, a.q, 1); err != nil {
						b.Fatal(err)
					}
				}
				perRow(b)
			})
		}
	}
}
