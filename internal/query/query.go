// Package query is the vectorized columnar query engine over colstore
// datasets: predicate kernels producing selection bitmaps, group-by on
// dense code columns, and aggregate kernels, executed block-at-a-time
// over either an in-memory cohort or an FPDS shard streamed off disk.
//
// # Execution model
//
// A query binds a set of schema columns (the union of its predicate,
// keyer, and value columns) and scans them in fixed 8192-respondent
// blocks — the FPDS codec block (colstore.BlockRespondents) — so the
// in-memory and out-of-core paths run the same kernels over the same
// boundaries. Each block pass builds a selection bitmap (predicates
// AND into it), computes dense group keys, and accumulates per-block
// partial aggregates. Blocks fan out across internal/parallel workers;
// partials land in a per-block slot and are merged sequentially in
// block order.
//
// # Determinism
//
// Block boundaries depend only on n, and the merge order is the block
// order, so results are bit-identical at any worker count and
// identical between the in-memory and streaming paths. Counts are
// integers. Float sums are accumulated per block and merged in block
// order — a fixed association independent of parallelism. For the
// value kinds the pipeline aggregates (quiz scores and tally fields,
// Likert levels: small integers), every partial sum is exact in
// float64, so the blockwise sum is additionally bit-identical to a
// straight left-to-right sum over respondents — which is why routing
// the figures through this engine does not move a single golden byte.
//
// # Out-of-core bound
//
// Streaming sources hold one block of each bound column per worker
// (plus the parsed header/arena/spill side tables), so a filtered
// group-by over an n=10M on-disk cohort peaks at
// workers × columns × 8192 × width bytes of column data, independent
// of n.
package query

import (
	"fmt"

	"fpstudy/internal/colstore"
	"fpstudy/internal/parallel"
	"fpstudy/internal/telemetry"
)

// BlockRows is the number of respondents per scan block (the FPDS
// codec block size).
const BlockRows = colstore.BlockRespondents

// NumBlocks returns the number of scan blocks covering n respondents.
func NumBlocks(n int) int { return (n + BlockRows - 1) / BlockRows }

// blockBounds returns the half-open respondent range of block b.
func blockBounds(b, n int) (lo, hi int) {
	lo = b * BlockRows
	hi = lo + BlockRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Patch is a per-block bitset correction for one multi-choice row
// whose canonical bitset is not its effective mask (a verbatim spill
// record): Row is block-relative, Mask the effective option bitset.
type Patch struct {
	Row  int
	Mask uint64
}

// Block is one scan block's column data: dense typed slices of length
// N covering global respondents [Lo, Lo+N). A block is valid until the
// reader's next Block call. Accessors take schema column indices and
// return the slice for the column's kind.
type Block struct {
	Lo, N int

	u8      [][]uint8
	i32     [][]int32
	u64     [][]uint64
	patches [][]Patch
	pos     []int16 // schema column index -> slot (-1 when unbound)
}

// U8 returns the truefalse/Likert code slice of a bound column.
func (b *Block) U8(ci int) []uint8 { return b.u8[b.pos[ci]] }

// I32 returns the single-choice code slice of a bound column.
func (b *Block) I32(ci int) []int32 { return b.i32[b.pos[ci]] }

// U64 returns the multi-choice bitset slice of a bound column. The
// bitsets are the canonical on-disk masks; rows with verbatim spill
// records carry their effective mask in Patches.
func (b *Block) U64(ci int) []uint64 { return b.u64[b.pos[ci]] }

// Patches returns the effective-mask corrections of a bound
// multi-choice column for this block (nil for generated cohorts, which
// never spill), sorted by row.
func (b *Block) Patches(ci int) []Patch { return b.patches[b.pos[ci]] }

// BlockReader yields blocks of bound columns. Readers are per-worker:
// a Block is valid only until the same reader's next call.
type BlockReader interface {
	Block(b int) (*Block, error)
}

// Source is a cohort the engine can scan: an in-memory dataset
// (NewDatasetSource) or an FPDS shard on disk (NewShardSource).
type Source interface {
	Schema() *colstore.Schema
	Len() int
	// ArenaStrings returns the cohort's free-text arena. Read-only.
	ArenaStrings() []string
	// MultiSpills returns the spill records of a multi-choice column,
	// keyed by respondent index (nil when none).
	MultiSpills(ci int) map[int]colstore.MultiSpill
	// NewReader returns a block cursor over the given schema columns.
	// Each scan worker holds its own reader.
	NewReader(cols []int) (BlockReader, error)
}

// Predicate filters rows: Apply ANDs the rows it matches into sel.
type Predicate interface {
	// Columns lists the schema columns the predicate reads.
	Columns() []int
	// Apply ANDs the predicate's matches over block b into sel.
	Apply(b *Block, sel *Bitmap)
}

// Keyer maps each row of a block to a dense group key in
// [0, Cardinality).
type Keyer interface {
	Columns() []int
	Cardinality() int
	// Keys writes the group key of every row of b into dst[:b.N].
	Keys(b *Block, dst []int32)
	// Labels returns the display label of every key.
	Labels() []string
}

// Value yields one float64 per row for aggregation. ok[j] reports
// whether row j contributes (e.g. unanswered Likert rows do not).
type Value interface {
	Columns() []int
	// Gather writes dst[j], ok[j] for every row j of b.
	Gather(b *Block, dst []float64, ok []bool)
}

// Query is one filtered, grouped, multi-valued aggregate.
type Query struct {
	// Filter predicates are ANDed; empty selects every row.
	Filter []Predicate
	// Key groups rows; nil aggregates everything into one group.
	Key Keyer
	// Values are aggregated per group (sum and contributing count, from
	// which Result.Mean derives). May be empty for count-only queries.
	Values []Value
}

// columnsOf collects the union of schema columns a query binds, in
// first-use order.
func (q *Query) columnsOf() []int {
	seen := map[int]bool{}
	var cols []int
	add := func(cs []int) {
		for _, c := range cs {
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	for _, p := range q.Filter {
		add(p.Columns())
	}
	if q.Key != nil {
		add(q.Key.Columns())
	}
	for _, v := range q.Values {
		add(v.Columns())
	}
	return cols
}

// Result holds a query's aggregates: per-group selected-row counts and
// per-value per-group sums with contributing counts.
type Result struct {
	// Labels names each group (index = group key).
	Labels []string
	// Count is the number of selected rows per group.
	Count []int64
	// N[v][k] is the number of rows contributing to value v in group k;
	// Sum[v][k] their sum.
	N   [][]int64
	Sum [][]float64
}

// Mean returns Sum/N of value v in group k (0 for an empty group,
// matching stats.Mean on empty input).
func (r *Result) Mean(v, k int) float64 {
	if r.N[v][k] == 0 {
		return 0
	}
	return r.Sum[v][k] / float64(r.N[v][k])
}

// TotalCount returns the number of selected rows across all groups.
func (r *Result) TotalCount() int64 {
	var t int64
	for _, c := range r.Count {
		t += c
	}
	return t
}

// scanState is the per-worker scratch of one scan.
type scanState struct {
	reader BlockReader
	sel    *Bitmap
	keys   []int32
	vals   []float64
	ok     []bool
	err    error
	// skipped is set by a scan callback that elided the current block's
	// aggregation because no row survived the filter.
	skipped bool
}

// scan drives a block-parallel pass: fn runs once per block with the
// worker's scratch and the loaded block, writing its partial into a
// per-block slot owned by the caller. Readers are per-worker; the
// first error wins deterministically (lowest block index). Each block
// is one telemetry.StageQueryBlock observation: its load, predicate
// evaluation, keying, and aggregation, its row count, and whether fn
// marked it skipped.
func scan(src Source, cols []int, workers, nb int, fn func(st *scanState, b int, blk *Block)) error {
	errs := make([]error, nb)
	parallel.ForEachWith(workers, nb,
		func() *scanState {
			st := &scanState{sel: NewBitmap(BlockRows)}
			st.reader, st.err = src.NewReader(cols)
			return st
		},
		func(st *scanState, b int) {
			if st.err != nil {
				errs[b] = st.err
				return
			}
			t0 := telemetry.Start()
			blk, err := st.reader.Block(b)
			if err != nil {
				errs[b] = err
				return
			}
			st.skipped = false
			fn(st, b, blk)
			var skipped int64
			if st.skipped {
				skipped = 1
			}
			telemetry.Done(telemetry.StageQueryBlock, b, t0, skipped, int64(blk.N))
		})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// applyQuery builds the block's selection and keys into st's scratch.
func applyQuery(q *Query, st *scanState, blk *Block) {
	st.sel.Reset(blk.N)
	for _, p := range q.Filter {
		p.Apply(blk, st.sel)
	}
	if q.Key != nil {
		if cap(st.keys) < blk.N {
			st.keys = make([]int32, BlockRows)
		}
		q.Key.Keys(blk, st.keys[:blk.N])
	}
}

// Run executes a grouped aggregate query over the source. The result
// is bit-identical at any worker count and identical between in-memory
// and streaming sources.
func Run(src Source, q Query, workers int) (*Result, error) {
	card := 1
	labels := []string{"all"}
	if q.Key != nil {
		card = q.Key.Cardinality()
		labels = q.Key.Labels()
	}
	if card < 1 {
		return nil, fmt.Errorf("query: keyer cardinality %d", card)
	}
	nb := NumBlocks(src.Len())

	type partial struct {
		count []int64
		n     [][]int64
		sum   [][]float64
	}
	parts := make([]*partial, nb)
	err := scan(src, q.columnsOf(), workers, nb, func(st *scanState, b int, blk *Block) {
		p := &partial{count: make([]int64, card)}
		p.n = make([][]int64, len(q.Values))
		p.sum = make([][]float64, len(q.Values))
		applyQuery(&q, st, blk)
		sel, keys := st.sel, st.keys
		selected := sel.Count()
		if q.Key == nil {
			p.count[0] = int64(selected)
		} else if selected > 0 {
			sel.ForEach(func(j int) { p.count[keys[j]]++ })
		}
		if len(q.Values) > 0 && selected == 0 {
			// No row survived the filter: every per-value partial is
			// all-zero, so skip the gather/accumulate pass for this
			// block entirely. The zero partials keep the merge loop
			// (and thus the result) bit-identical to the slow path.
			for vi := range q.Values {
				p.n[vi] = make([]int64, card)
				p.sum[vi] = make([]float64, card)
			}
			st.skipped = true
		} else if len(q.Values) > 0 {
			if cap(st.vals) < blk.N {
				st.vals = make([]float64, BlockRows)
				st.ok = make([]bool, BlockRows)
			}
			vals, okv := st.vals[:blk.N], st.ok[:blk.N]
			for vi, v := range q.Values {
				v.Gather(blk, vals, okv)
				pn := make([]int64, card)
				ps := make([]float64, card)
				if q.Key == nil {
					sel.ForEach(func(j int) {
						if okv[j] {
							pn[0]++
							ps[0] += vals[j]
						}
					})
				} else {
					sel.ForEach(func(j int) {
						if okv[j] {
							k := keys[j]
							pn[k]++
							ps[k] += vals[j]
						}
					})
				}
				p.n[vi], p.sum[vi] = pn, ps
			}
		}
		parts[b] = p
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Labels: labels, Count: make([]int64, card)}
	res.N = make([][]int64, len(q.Values))
	res.Sum = make([][]float64, len(q.Values))
	for vi := range q.Values {
		res.N[vi] = make([]int64, card)
		res.Sum[vi] = make([]float64, card)
	}
	for _, p := range parts {
		for k := 0; k < card; k++ {
			res.Count[k] += p.count[k]
		}
		for vi := range q.Values {
			for k := 0; k < card; k++ {
				res.N[vi][k] += p.n[vi][k]
				res.Sum[vi][k] += p.sum[vi][k]
			}
		}
	}
	return res, nil
}

// CollectResult holds per-group value sequences in respondent order.
type CollectResult struct {
	Labels []string
	// Groups[k] lists the value of every selected, contributing row of
	// group k, in global respondent order.
	Groups [][]float64
}

// RunCollect executes a grouped collection: instead of reducing to
// sums it preserves each group's exact value sequence in respondent
// order (per-block buckets appended in block order), which is what
// order-sensitive statistics (StdDev, Median, histograms) need to stay
// bit-identical to a sequential row loop. Requires exactly one value.
func RunCollect(src Source, q Query, workers int) (*CollectResult, error) {
	if len(q.Values) != 1 {
		return nil, fmt.Errorf("query: RunCollect needs exactly one value, got %d", len(q.Values))
	}
	card := 1
	labels := []string{"all"}
	if q.Key != nil {
		card = q.Key.Cardinality()
		labels = q.Key.Labels()
	}
	nb := NumBlocks(src.Len())
	parts := make([][][]float64, nb)
	err := scan(src, q.columnsOf(), workers, nb, func(st *scanState, b int, blk *Block) {
		applyQuery(&q, st, blk)
		if st.sel.Count() == 0 {
			// Empty selection: nothing to collect, skip the gather.
			parts[b] = make([][]float64, card)
			st.skipped = true
			return
		}
		if cap(st.vals) < blk.N {
			st.vals = make([]float64, BlockRows)
			st.ok = make([]bool, BlockRows)
		}
		vals, okv := st.vals[:blk.N], st.ok[:blk.N]
		q.Values[0].Gather(blk, vals, okv)
		groups := make([][]float64, card)
		keys := st.keys
		st.sel.ForEach(func(j int) {
			if !okv[j] {
				return
			}
			k := int32(0)
			if q.Key != nil {
				k = keys[j]
			}
			groups[k] = append(groups[k], vals[j])
		})
		parts[b] = groups
	})
	if err != nil {
		return nil, err
	}
	res := &CollectResult{Labels: labels, Groups: make([][]float64, card)}
	for _, groups := range parts {
		for k, vs := range groups {
			res.Groups[k] = append(res.Groups[k], vs...)
		}
	}
	return res, nil
}

// CountByKeys executes several keyers over one filtered scan,
// returning out[k][key] = selected rows with that key under keyer k.
// One pass serves a whole per-question breakdown (Figures 14/15: 15
// outcome keyers, one scan).
func CountByKeys(src Source, keyers []Keyer, filter []Predicate, workers int) ([][]int64, error) {
	cols := (&Query{Filter: filter}).columnsOf()
	seen := map[int]bool{}
	for _, c := range cols {
		seen[c] = true
	}
	for _, k := range keyers {
		for _, c := range k.Columns() {
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	nb := NumBlocks(src.Len())
	parts := make([][][]int64, nb)
	err := scan(src, cols, workers, nb, func(st *scanState, b int, blk *Block) {
		st.sel.Reset(blk.N)
		for _, p := range filter {
			p.Apply(blk, st.sel)
		}
		if cap(st.keys) < blk.N {
			st.keys = make([]int32, BlockRows)
		}
		counts := make([][]int64, len(keyers))
		keys := st.keys[:blk.N]
		for ki, k := range keyers {
			k.Keys(blk, keys)
			c := make([]int64, k.Cardinality())
			st.sel.ForEach(func(j int) { c[keys[j]]++ })
			counts[ki] = c
		}
		parts[b] = counts
	})
	if err != nil {
		return nil, err
	}
	out := make([][]int64, len(keyers))
	for ki, k := range keyers {
		out[ki] = make([]int64, k.Cardinality())
	}
	for _, counts := range parts {
		for ki := range keyers {
			for key, c := range counts[ki] {
				out[ki][key] += c
			}
		}
	}
	return out, nil
}
