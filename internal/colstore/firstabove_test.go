package colstore

import (
	"math/rand"
	"testing"
)

// TestFirstAboveMatchesByteLoop checks the word-at-a-time validation
// against a plain byte loop for every limit, on payloads whose lengths
// straddle the eight-byte words, with the offending bytes planted at
// every position and with values on both sides of 128 (a byte from
// 128 up carries out of its lane when the test adds 127-limit).
func TestFirstAboveMatchesByteLoop(t *testing.T) {
	ref := func(p []byte, limit uint8) int {
		for j, v := range p {
			if v > limit {
				return j
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(1))
	for limit := 0; limit < 256; limit++ {
		for n := 0; n <= 35; n++ {
			p := make([]byte, n)
			for trial := 0; trial < 8; trial++ {
				for j := range p {
					p[j] = uint8(rng.Intn(limit + 1))
				}
				if n > 0 && trial > 0 {
					p[rng.Intn(n)] = uint8(limit + 1 + rng.Intn(256-limit))
					if trial%2 == 0 {
						p[rng.Intn(n)] = uint8(rng.Intn(256))
					}
				}
				if got, want := firstAbove(p, uint8(limit)), ref(p, uint8(limit)); got != want {
					t.Fatalf("limit=%d p=%v: firstAbove = %d, want %d", limit, p, got, want)
				}
			}
		}
	}
}
