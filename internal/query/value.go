package query

// LikertValue yields a Likert column's level; unanswered rows (level
// 0) do not contribute.
type LikertValue struct {
	Col int
}

func (v LikertValue) Columns() []int { return []int{v.Col} }

func (v LikertValue) Gather(b *Block, dst []uint8, ok *Bitmap) {
	col := b.U8(v.Col)
	copy(dst, col)
	ok.Reset(b.N)
	for wi := range ok.words {
		var answered uint64
		for g := 0; g < 8; g++ {
			answered |= pack8(ZeroLanes(Word8(col, wi*64+8*g))^lanes80) << (8 * g)
		}
		ok.words[wi] &= answered
	}
}
