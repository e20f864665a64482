package query

import (
	"math/rand"
	"reflect"
	"testing"
)

// The word kernels against the row loops they replace, on hand-built
// blocks: every byte value, lengths that are not a multiple of 8 or
// 64, random incoming selections (so skipped and all-false words are
// exercised) and spill patches.

// kernelLens are block lengths around the 8- and 64-row word edges and
// the block size.
var kernelLens = []int{1, 7, 8, 9, 63, 64, 65, 255, 256, 257, 1000, BlockRows - 1, BlockRows}

// u8Block is a one-column block over col.
func u8Block(col []uint8) *Block {
	return &Block{N: len(col), u8: [][]uint8{col}, pos: []int16{0}}
}

// randomSel returns a selection of n rows: all set, none set, or
// random words with some left zero.
func randomSel(rng *rand.Rand, n int) *Bitmap {
	sel := NewBitmap(n)
	switch rng.Intn(3) {
	case 0:
	case 1:
		for i := range sel.words {
			sel.words[i] = 0
		}
	default:
		for i := range sel.words {
			if rng.Intn(4) > 0 {
				sel.words[i] &= rng.Uint64()
			} else {
				sel.words[i] = 0
			}
		}
	}
	return sel
}

// applyRef ANDs the rows of sel passing test into a copy of sel.
func applyRef(sel *Bitmap, test func(j int) bool) *Bitmap {
	want := &Bitmap{words: append([]uint64(nil), sel.words...), n: sel.n}
	for j := 0; j < sel.n; j++ {
		if !test(j) {
			want.words[j/64] &^= 1 << uint(j%64)
		}
	}
	return want
}

// allBytes returns n codes that run through all 256 byte values from
// a random start.
func allBytes(rng *rand.Rand, n int) []uint8 {
	col := make([]uint8, n)
	start := rng.Intn(256)
	for j := range col {
		col[j] = uint8(start + j*37)
	}
	return col
}

func TestLaneHelpersAllBytes(t *testing.T) {
	for v := 0; v < 256; v++ {
		w := uint64(v) << 24 // one lane in the middle, the rest zero
		if got, want := ZeroLanes(w)>>31&1 == 1, v == 0; got != want {
			t.Fatalf("ZeroLanes lane %#x: %v", v, got)
		}
		for c := 0; c < 256; c++ {
			if got := eqLanes(lanes01*uint64(v), uint8(c)); (got == lanes80) != (v == c) || (got != 0 && got != lanes80) {
				t.Fatalf("eqLanes(%#x, %#x) = %#x", v, c, got)
			}
			if got := aboveLanes(lanes01*uint64(v), uint8(c)); (got == lanes80) != (v > c) || (got != 0 && got != lanes80) {
				t.Fatalf("aboveLanes(%#x, %#x) = %#x", v, c, got)
			}
		}
		// pack8 maps lane k's top bit to bit k.
		var m uint64
		for k := 0; k < 8; k++ {
			if v&(1<<k) != 0 {
				m |= 0x80 << (8 * k)
			}
		}
		if got := pack8(m); got != uint64(v) {
			t.Fatalf("pack8(%#x) = %#x, want %#x", m, got, v)
		}
		if got := byteMask[v] & lanes80; pack8(got) != uint64(v) {
			t.Fatalf("byteMask[%#x] = %#x", v, byteMask[v])
		}
	}
	// Mixed lanes: each lane tested independently of its neighbours.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		w, c, lim := rng.Uint64(), uint8(rng.Intn(256)), uint8(rng.Intn(256))
		eq, above := eqLanes(w, c), aboveLanes(w, lim)
		for k := 0; k < 8; k++ {
			b := uint8(w >> (8 * k))
			if (eq>>(8*k+7)&1 == 1) != (b == c) || (above>>(8*k+7)&1 == 1) != (b > lim) {
				t.Fatalf("w=%#x lane %d: eq %#x above %#x (c=%d limit=%d)", w, k, eq, above, c, lim)
			}
		}
	}
}

func TestU8KernelsAllBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		col := allBytes(rng, n)
		b := u8Block(col)
		for c := 0; c < 256; c++ {
			code := uint8(c)
			lo, hi := uint8(rng.Intn(256)), uint8(rng.Intn(256))
			if c%3 == 0 {
				lo = 0
			}
			for _, tc := range []struct {
				name string
				p    Predicate
				ref  func(v uint8) bool
			}{
				{"U8Eq", U8Eq{Code: code}, func(v uint8) bool { return v == code }},
				{"U8Ne", U8Ne{Code: code}, func(v uint8) bool { return v != code }},
				{"U8Range", U8Range{Lo: lo, Hi: hi}, func(v uint8) bool { return v >= lo && v <= hi }},
				{"U8Range-from", U8Range{Lo: code, Hi: 255}, func(v uint8) bool { return v >= code }},
				{"U8Range-to", U8Range{Lo: 1, Hi: code}, func(v uint8) bool { return v >= 1 && v <= code }},
			} {
				sel := randomSel(rng, n)
				want := applyRef(sel, func(j int) bool { return tc.ref(col[j]) })
				tc.p.Apply(b, sel)
				if !reflect.DeepEqual(sel.words, want.words) {
					t.Fatalf("n=%d %s code=%d lo=%d hi=%d: got %x, want %x", n, tc.name, code, lo, hi, sel.words, want.words)
				}
			}
		}

		// LikertValue: the byte itself, contributing when non-zero.
		dst, ok := make([]uint8, n), NewBitmap(1)
		LikertValue{}.Gather(b, dst, ok)
		want := applyRef(NewBitmap(n), func(j int) bool { return col[j] != 0 })
		if !reflect.DeepEqual(dst, col) || !reflect.DeepEqual(ok.words, want.words) || ok.n != n {
			t.Fatalf("n=%d LikertValue: values or contributing rows differ", n)
		}
	}
}

func TestCodeKernelsVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		codes := make([]int32, n)
		masks := make([]uint64, n)
		for j := range codes {
			switch rng.Intn(6) {
			case 0:
				codes[j] = -1 - rng.Int31n(5) // free text
			case 1:
				codes[j] = 60 + rng.Int31n(10) // around the 64-code mask edge
			default:
				codes[j] = rng.Int31n(8)
			}
			masks[j] = rng.Uint64() & rng.Uint64()
		}
		// Patches on a sorted subset of rows, some of them zero masks.
		var patches []Patch
		for j := 0; j < n; j++ {
			if rng.Intn(7) == 0 {
				patches = append(patches, Patch{Row: j, Mask: rng.Uint64() & uint64(rng.Intn(16))})
			}
		}
		effective := append([]uint64(nil), masks...)
		for _, p := range patches {
			effective[p.Row] = p.Mask
		}
		b := &Block{N: n, i32: [][]int32{codes}, u64: [][]uint64{masks}, patches: [][]Patch{patches}, pos: []int16{0}}
		for trial := 0; trial < 64; trial++ {
			set := rng.Uint64() & rng.Uint64()
			code := rng.Int31n(70) - 3
			mask := uint64(1+rng.Intn(15)) << uint(rng.Intn(3))
			for _, tc := range []struct {
				name string
				p    Predicate
				ref  func(j int) bool
			}{
				{"I32Set", I32Set{Mask: set}, func(j int) bool {
					c := codes[j]
					return c >= 0 && c < 64 && set&(1<<uint(c)) != 0
				}},
				{"I32Ne", I32Ne{Code: code}, func(j int) bool { return codes[j] != code }},
				{"U64Any", U64Any{Mask: mask}, func(j int) bool { return effective[j]&mask != 0 }},
				{"U64All", U64All{Mask: mask}, func(j int) bool { return effective[j]&mask == mask }},
			} {
				sel := randomSel(rng, n)
				want := applyRef(sel, tc.ref)
				tc.p.Apply(b, sel)
				if !reflect.DeepEqual(sel.words, want.words) {
					t.Fatalf("n=%d %s trial %d: got %x, want %x", n, tc.name, trial, sel.words, want.words)
				}
			}
		}
	}
}

func TestAggregateKernelsVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range kernelLens {
		for _, card := range []int{1, 4, 67} {
			vals := allBytes(rng, n)
			keys := make([]int32, n)
			for j := range keys {
				keys[j] = rng.Int31n(int32(card))
				if rng.Intn(3) == 0 && j > 0 {
					keys[j] = keys[j-1] // runs of one key
				}
			}
			sel := randomSel(rng, n)
			wantN, wantSum := make([]int64, card), make([]int64, card)
			var allN, allSum int64
			for j := 0; j < n; j++ {
				if sel.Test(j) {
					wantN[keys[j]]++
					wantSum[keys[j]] += int64(vals[j])
					allN++
					allSum += int64(vals[j])
				}
			}
			if gotN, gotSum := maskedSum(sel.words, vals); gotN != allN || gotSum != allSum {
				t.Fatalf("n=%d maskedSum = %d, %d; want %d, %d", n, gotN, gotSum, allN, allSum)
			}
			hist := make([]uint64, 4*card)
			gotN, gotSum := make([]int64, card), make([]int64, card)
			keyedSums(sel.words, keys, vals, hist, gotN, gotSum)
			if !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotSum, wantSum) {
				t.Fatalf("n=%d card=%d keyedSums: n %v sum %v, want n %v sum %v", n, card, gotN, gotSum, wantN, wantSum)
			}
			counts := make([]int64, card)
			keyedSums(sel.words, keys, nil, hist, counts, nil)
			if !reflect.DeepEqual(counts, wantN) {
				t.Fatalf("n=%d card=%d keyed counts %v, want %v", n, card, counts, wantN)
			}
			for _, c := range hist {
				if c != 0 {
					t.Fatalf("n=%d card=%d: keyedSums left its cells dirty", n, card)
				}
			}
		}
	}
}
