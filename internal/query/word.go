package query

import (
	"encoding/binary"
	"math/bits"
)

// Word-at-a-time helpers. A byte column is read eight rows to a
// uint64, little-endian whatever the host's byte order, so byte lane k
// of the word is row i+k. A lane test leaves 0x80 in each lane whose
// row passes and 0 elsewhere; pack8 gathers those eight top bits into
// one byte of a 64-row match word. Every test works on the low seven
// bits of a lane plus its top bit separately, so no add carries into
// the next lane and the result is exact for all 256 byte values.

const (
	lanes01 = 0x0101010101010101 // 1 in every byte lane
	lanes7f = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080
)

// Word8 returns col[i:i+8] as a little-endian word (row i in the low
// byte); bytes past the end of col read as zero.
func Word8(col []uint8, i int) uint64 {
	if i+8 <= len(col) {
		return binary.LittleEndian.Uint64(col[i:])
	}
	var w uint64
	for k := 0; i+k < len(col); k++ {
		w |= uint64(col[i+k]) << (8 * k)
	}
	return w
}

// PutWord8 stores w little-endian into dst[i:i+8], dropping the bytes
// that fall past the end of dst.
func PutWord8(dst []uint8, i int, w uint64) {
	if i+8 <= len(dst) {
		binary.LittleEndian.PutUint64(dst[i:], w)
		return
	}
	for k := 0; i+k < len(dst); k++ {
		dst[i+k] = uint8(w >> (8 * k))
	}
}

// ZeroLanes returns 0x80 in each byte lane of w that is zero. Adding
// 0x7f to a lane's low seven bits sets its top bit exactly when one of
// them is set, and cannot carry out of the lane; the OR brings in the
// lane's own top bit.
func ZeroLanes(w uint64) uint64 {
	return ^(((w & lanes7f) + lanes7f) | w) & lanes80
}

// eqLanes returns 0x80 in each byte lane of w equal to c.
func eqLanes(w uint64, c uint8) uint64 {
	return ZeroLanes(w ^ lanes01*uint64(c))
}

// aboveLanes returns 0x80 in each byte lane of w above limit. For a
// limit below 128, a lane is above when its top bit is set or its low
// seven bits exceed limit, which adding 127-limit to them reveals in
// the top bit (as in colstore's firstAbove, but masked so that no
// carry leaves the lane). From 128 up, the top bit must be set and the
// low seven bits must exceed limit-128.
func aboveLanes(w uint64, limit uint8) uint64 {
	low := w & lanes7f
	if limit < 128 {
		return ((low + lanes01*uint64(127-limit)) | w) & lanes80
	}
	return (low + lanes01*uint64(255-limit)) & w & lanes80
}

// pack8 gathers the top bits of the byte lanes of m (each 0x80 or 0)
// into one byte, lane k to bit k. After the shift lane k holds bit 8k;
// the multiplier's bit 56-7k carries it to bit 56+k, and no two
// (lane, multiplier bit) pairs meet in the same bit, so nothing
// carries.
func pack8(m uint64) uint64 {
	return (m >> 7) * 0x0102040810204080 >> 56
}

// byteMask[b] has 0xff in byte lane k when bit k of b is set: it
// widens eight selection bits to a mask over eight byte values.
var byteMask = func() (t [256]uint64) {
	for b := range t {
		for k := 0; k < 8; k++ {
			if b&(1<<k) != 0 {
				t[b] |= 0xff << (8 * k)
			}
		}
	}
	return t
}()

// maskedSum returns the number of rows set in the selection words m and
// the sum of their vals. Each 8-row group adds its selected bytes into
// four 16-bit lanes, at most 2·255 a lane per group; flushing every 16
// words (128 groups) keeps a lane below 2^16.
func maskedSum(m []uint64, vals []uint8) (n, sum int64) {
	const even = 0x00ff00ff00ff00ff
	var acc uint64
	for wi, w := range m {
		n += int64(bits.OnesCount64(w))
		for i := wi * 64; w != 0; i += 8 {
			if b := w & 0xff; b != 0 {
				v := Word8(vals, i) & byteMask[b]
				acc += v&even + v>>8&even
			}
			w >>= 8
		}
		if wi%16 == 15 {
			sum += lanes16(acc)
			acc = 0
		}
	}
	return n, sum + lanes16(acc)
}

// lanes16 sums the four 16-bit lanes of acc.
func lanes16(acc uint64) int64 {
	return int64(acc&0xffff + acc>>16&0xffff + acc>>32&0xffff + acc>>48)
}

// keyedSums adds, for every row j set in the selection words m, one to
// n[keys[j]] and vals[j] to sum[keys[j]] (vals nil counts rows only).
// Each key has four uint64 cells in hist, row j adding to cell j&3, so
// that runs of one key do not wait on one memory word; a cell holds
// its count in the high half and its sum in the low half. A block's
// sum is at most BlockRows·255 < 2^32, so the halves cannot meet. The
// cells are folded into n and sum and cleared before returning; hist
// holds 4·len(n) cells.
func keyedSums(m []uint64, keys []int32, vals []uint8, hist []uint64, n, sum []int64) {
	for wi, w := range m {
		base := wi * 64
		switch {
		case w == ^uint64(0) && vals == nil:
			// A full word, as in every unfiltered block: no bit scan.
			cellsFull(hist, keys[base:base+64], &zeros)
		case w == ^uint64(0):
			cellsFull(hist, keys[base:base+64], (*[64]uint8)(vals[base:base+64]))
		case vals == nil:
			cellsSparse(hist, w, keys[base:min(base+64, len(keys))], nil)
		default:
			cellsSparse(hist, w, keys[base:min(base+64, len(keys))], vals[base:min(base+64, len(vals))])
		}
	}
	for k := range n {
		h := hist[4*k : 4*k+4]
		t := h[0] + h[1] + h[2] + h[3]
		clear(h)
		n[k] += int64(t >> 32)
		if sum != nil {
			sum[k] += int64(t & (cellOne - 1))
		}
	}
}

// cellOne is one row's count in a keyedSums cell.
const cellOne = 1 << 32

// zeros stands in for the values of a count-only pass.
var zeros [64]uint8

// cellsFull adds 64 consecutive rows to their keys' cells.
func cellsFull(hist []uint64, keys []int32, vals *[64]uint8) {
	keys = keys[:64]
	for j := 0; j < 64; j += 4 {
		hist[int(keys[j])<<2] += cellOne | uint64(vals[j])
		hist[int(keys[j+1])<<2|1] += cellOne | uint64(vals[j+1])
		hist[int(keys[j+2])<<2|2] += cellOne | uint64(vals[j+2])
		hist[int(keys[j+3])<<2|3] += cellOne | uint64(vals[j+3])
	}
}

// cellsSparse adds the rows set in w to their keys' cells (vals empty
// counts rows only).
func cellsSparse(hist []uint64, w uint64, keys []int32, vals []uint8) {
	for w != 0 {
		j := bits.TrailingZeros64(w)
		w &= w - 1
		inc := uint64(cellOne)
		if len(vals) > 0 {
			inc |= uint64(vals[j])
		}
		hist[int(keys[j])<<2|j&3] += inc
	}
}

// Compile-time bound: a block's value sum fits the low half of a cell.
const _ uint32 = BlockRows * 255
