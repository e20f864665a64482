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
// AND into it), computes dense group keys, gathers each value as one
// byte per row plus a bitmap of the rows that contribute, and
// accumulates per-block integer partials. Blocks fan out across
// internal/parallel workers; partials land in a per-block slot and
// are added up in block order.
//
// # Word kernels
//
// The kernels work a word at a time (word.go). A truefalse or Likert
// predicate loads eight codes per little-endian uint64, tests all
// eight bytes at once with carry-free lane arithmetic, and packs the
// eight results into the 64-row match word with one multiply; code
// and bitset predicates decide each row without a branch. An
// ungrouped aggregate is a popcount and a masked sum of byte lanes; a
// grouped one adds each selected row to its key's cells, a count and
// a sum packed in one uint64.
//
// # Determinism
//
// Block boundaries depend only on n, and every count and sum is an
// integer, so results are bit-identical at any worker count and
// identical between the in-memory and streaming paths, and a sum is
// the one a straight row loop gives. Result.Sum converts each exact
// integer sum to float64 once; a sum of at most 255 per row stays far
// below 2^53. ScanBlocks hands the same block scan to callers that fuse
// many aggregates into one pass — core's paper plan reads all 22
// figures and the headline claims off one ScanBlocks pass per cohort —
// under the same contract: a per-block slot, merged in block order.
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

// Value yields one small integer per row for aggregation: a quiz
// outcome count, a Likert level.
type Value interface {
	Columns() []int
	// Gather writes the value of every row j of b into dst[j] (dst has
	// length b.N) and resets ok to b.N rows, set where the row
	// contributes (unanswered Likert rows do not).
	Gather(b *Block, dst []uint8, ok *Bitmap)
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
	vals   []uint8
	ok     *Bitmap
	hist   []uint64 // keyedSums cells, four per group key
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

// ScanBlocks runs fn once per scan block of src, with the given schema
// columns bound, across the worker budget. fn may run concurrently for
// different blocks; the block is valid only during the call, so fn
// keeps what it needs in a per-block slot of its own and merges the
// slots in block order afterwards. The first error in block order is
// returned. This is the engine's scan for callers that fuse several
// aggregates into one pass (core's paper plan); each block counts as
// one telemetry.StageQueryBlock observation, as for Run.
func ScanBlocks(src Source, cols []int, workers int, fn func(b int, blk *Block)) error {
	return scan(src, cols, workers, NumBlocks(src.Len()), func(_ *scanState, b int, blk *Block) {
		fn(b, blk)
	})
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

// Run executes a grouped aggregate query over the source. Counts and
// sums are integers throughout: each block's land in its own slot,
// and the slots add up in block order. The result is bit-identical at
// any worker count and identical between in-memory and streaming
// sources.
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
	nv := len(q.Values)

	// Block b's slot holds its counts, then each value's contributing
	// counts and sums: card·(1+2·nv) cells.
	stride := card * (1 + 2*nv)
	cells := make([]int64, nb*stride)
	err := scan(src, q.columnsOf(), workers, nb, func(st *scanState, b int, blk *Block) {
		slot := cells[b*stride : (b+1)*stride]
		count := slot[:card]
		applyQuery(&q, st, blk)
		selected := st.sel.Count()
		if selected == 0 {
			// No row survived the filter: the slot stays all-zero, as
			// the aggregation would leave it.
			st.skipped = nv > 0
			return
		}
		if q.Key == nil {
			count[0] = int64(selected)
		} else {
			if st.hist == nil {
				st.hist = make([]uint64, 4*card)
			}
			keyedSums(st.sel.words, st.keys, nil, st.hist, count, nil)
		}
		if nv == 0 {
			return
		}
		if st.vals == nil {
			st.vals = make([]uint8, BlockRows)
			st.ok = NewBitmap(BlockRows)
		}
		vals := st.vals[:blk.N]
		for vi, v := range q.Values {
			n := slot[card*(1+2*vi) : card*(2+2*vi)]
			sum := slot[card*(2+2*vi) : card*(3+2*vi)]
			v.Gather(blk, vals, st.ok)
			for wi, w := range st.sel.words {
				st.ok.words[wi] &= w
			}
			if q.Key == nil {
				n[0], sum[0] = maskedSum(st.ok.words, vals)
			} else {
				keyedSums(st.ok.words, st.keys, vals, st.hist, n, sum)
			}
		}
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Labels: labels, Count: make([]int64, card)}
	res.N = make([][]int64, nv)
	res.Sum = make([][]float64, nv)
	sums := make([][]int64, nv)
	for vi := range q.Values {
		res.N[vi] = make([]int64, card)
		sums[vi] = make([]int64, card)
	}
	for b := 0; b < nb; b++ {
		slot := cells[b*stride : (b+1)*stride]
		for k := 0; k < card; k++ {
			res.Count[k] += slot[k]
			for vi := range q.Values {
				res.N[vi][k] += slot[card*(1+2*vi)+k]
				sums[vi][k] += slot[card*(2+2*vi)+k]
			}
		}
	}
	// Sums are at most n·255, far below 2^53, so the conversion is exact.
	for vi, s := range sums {
		res.Sum[vi] = make([]float64, card)
		for k, x := range s {
			res.Sum[vi][k] = float64(x)
		}
	}
	return res, nil
}
