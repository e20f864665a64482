package query

// The tests read selections back row by row; the kernels only AND words
// into a bitmap and the aggregates walk its words.

// Len returns the number of rows the bitmap covers.
func (m *Bitmap) Len() int { return m.n }

// Test reports whether row j is selected.
func (m *Bitmap) Test(j int) bool {
	return m.words[j/64]&(1<<uint(j%64)) != 0
}
