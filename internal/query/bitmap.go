package query

import "math/bits"

// Bitmap is a selection vector over the rows of one block: bit j set
// means row j of the block is selected. Predicates AND their matches
// into it, so an empty filter list leaves every row selected.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap allocates a bitmap sized for n rows.
func NewBitmap(n int) *Bitmap {
	m := &Bitmap{}
	m.Reset(n)
	return m
}

// Reset resizes the bitmap to n rows with every row selected, reusing
// the backing array when possible.
func (m *Bitmap) Reset(n int) {
	w := (n + 63) / 64
	if cap(m.words) < w {
		m.words = make([]uint64, w)
	}
	m.words = m.words[:w]
	m.n = n
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	if tail := uint(n % 64); tail != 0 && w > 0 {
		m.words[w-1] = ^uint64(0) >> (64 - tail)
	}
}

// Count returns the number of selected rows.
func (m *Bitmap) Count() int {
	c := 0
	for _, w := range m.words {
		c += bits.OnesCount64(w)
	}
	return c
}
