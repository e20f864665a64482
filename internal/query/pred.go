package query

// Predicate kernels. Each walks the selection bitmap word by word: for
// every 64-row word that still has candidates it computes a match word
// from the dense column and ANDs it in. Words already zero are
// skipped, so predicates get cheaper as the filter narrows. Byte
// columns are tested eight rows per load (see word.go); code and
// bitset columns a row at a time, but with no branch per row. Rows
// past the block's end may match in the last word; the selection's
// tail bits are clear, so the AND drops them.

// U8Eq matches truefalse or Likert codes equal to Code (0 matches
// unanswered rows).
type U8Eq struct {
	Col  int
	Code uint8
}

func (p U8Eq) Columns() []int { return []int{p.Col} }

func (p U8Eq) Apply(b *Block, sel *Bitmap) {
	col := b.U8(p.Col)
	for wi, wv := range sel.words {
		if wv == 0 {
			continue
		}
		var match uint64
		for g := 0; g < 8; g++ {
			match |= pack8(eqLanes(Word8(col, wi*64+8*g), p.Code)) << (8 * g)
		}
		sel.words[wi] = wv & match
	}
}

// U8Ne matches truefalse or Likert codes different from Code
// (unanswered rows match unless Code is 0).
type U8Ne struct {
	Col  int
	Code uint8
}

func (p U8Ne) Columns() []int { return []int{p.Col} }

func (p U8Ne) Apply(b *Block, sel *Bitmap) {
	col := b.U8(p.Col)
	for wi, wv := range sel.words {
		if wv == 0 {
			continue
		}
		var match uint64
		for g := 0; g < 8; g++ {
			match |= pack8(eqLanes(Word8(col, wi*64+8*g), p.Code)^lanes80) << (8 * g)
		}
		sel.words[wi] = wv & match
	}
}

// U8Range matches Likert levels in [Lo, Hi] inclusive. Unanswered
// rows (level 0) match only when Lo is 0.
type U8Range struct {
	Col    int
	Lo, Hi uint8
}

func (p U8Range) Columns() []int { return []int{p.Col} }

func (p U8Range) Apply(b *Block, sel *Bitmap) {
	col := b.U8(p.Col)
	for wi, wv := range sel.words {
		if wv == 0 {
			continue
		}
		var match uint64
		for g := 0; g < 8; g++ {
			w := Word8(col, wi*64+8*g)
			in := aboveLanes(w, p.Hi) ^ lanes80 // at most Hi
			if p.Lo > 0 {
				in &= aboveLanes(w, p.Lo-1) // at least Lo
			}
			match |= pack8(in) << (8 * g)
		}
		sel.words[wi] = wv & match
	}
}

// I32Set matches single-choice codes in a set, encoded as a bitmask
// over codes 0..63 (bit c set = code c matches; the instrument's
// option lists are far below 64). Free-text codes (negative) never
// match; bit 0 selects unanswered rows.
type I32Set struct {
	Col  int
	Mask uint64
}

// I32SetOf builds the mask for a list of codes.
func I32SetOf(col int, codes ...int32) I32Set {
	p := I32Set{Col: col}
	for _, c := range codes {
		if c >= 0 && c < 64 {
			p.Mask |= 1 << uint(c)
		}
	}
	return p
}

func (p I32Set) Columns() []int { return []int{p.Col} }

func (p I32Set) Apply(b *Block, sel *Bitmap) {
	col := b.I32(p.Col)
	for wi, wv := range sel.words {
		if wv == 0 {
			continue
		}
		var match uint64
		for j, v := range col[wi*64 : min(wi*64+64, len(col))] {
			// A code from 64 up, or a negative one read unsigned,
			// leaves uint64(c)-64 without its top bit.
			c := uint64(uint32(v))
			match |= p.Mask >> (c & 63) & ((c - 64) >> 63) << j
		}
		sel.words[wi] = wv & match
	}
}

// I32Ne matches single-choice codes different from Code (free-text
// codes always differ from declared-option codes and so match).
type I32Ne struct {
	Col  int
	Code int32
}

func (p I32Ne) Columns() []int { return []int{p.Col} }

func (p I32Ne) Apply(b *Block, sel *Bitmap) {
	col := b.I32(p.Col)
	for wi, wv := range sel.words {
		if wv == 0 {
			continue
		}
		var match uint64
		for j, v := range col[wi*64 : min(wi*64+64, len(col))] {
			// Adding 2^32-1 carries into bit 32 exactly when the
			// 32-bit difference is non-zero.
			match |= (uint64(uint32(v^p.Code)) + 0xffffffff) >> 32 << j
		}
		sel.words[wi] = wv & match
	}
}

// nonZero returns 1 when x is non-zero and 0 otherwise.
func nonZero(x uint64) uint64 { return (x | -x) >> 63 }

// u64Apply ANDs into sel the rows of a bitset column whose *effective*
// mask m satisfies nonZero(m&mask^want)^flip: test-any with want and
// flip zero, test-all with want = mask and flip = 1. The canonical
// column is tested first, then the block's verbatim-spill patches
// (empty for generated cohorts) overwrite their rows' bits.
func u64Apply(b *Block, ci int, sel *Bitmap, mask, want, flip uint64) {
	col := b.U64(ci)
	patches := b.Patches(ci)
	pi := 0
	for wi, wv := range sel.words {
		base := wi * 64
		end := min(base+64, len(col))
		if wv == 0 {
			for pi < len(patches) && patches[pi].Row < end {
				pi++
			}
			continue
		}
		var match uint64
		for j, m := range col[base:end] {
			match |= (nonZero(m&mask^want) ^ flip) << j
		}
		for ; pi < len(patches) && patches[pi].Row < end; pi++ {
			pt := patches[pi]
			j := uint(pt.Row - base)
			match = match&^(1<<j) | (nonZero(pt.Mask&mask^want)^flip)<<j
		}
		sel.words[wi] = wv & match
	}
}

// U64Any matches multi-choice rows whose effective bitset intersects
// Mask (test-any).
type U64Any struct {
	Col  int
	Mask uint64
}

func (p U64Any) Columns() []int { return []int{p.Col} }

func (p U64Any) Apply(b *Block, sel *Bitmap) {
	u64Apply(b, p.Col, sel, p.Mask, 0, 0)
}

// U64All matches multi-choice rows whose effective bitset contains
// every bit of Mask (test-all).
type U64All struct {
	Col  int
	Mask uint64
}

func (p U64All) Columns() []int { return []int{p.Col} }

func (p U64All) Apply(b *Block, sel *Bitmap) {
	u64Apply(b, p.Col, sel, p.Mask, p.Mask, 1)
}
