package colstore

// SetTokens gives d explicit tokens: the ones it has, with respondent
// i's replaced by tokens[i]. The external tests use it to build
// datasets whose tokens break the automatic scheme.
func (d *Dataset) SetTokens(tokens map[int]string) {
	if d.tokens == nil {
		d.tokens = make([]string, d.n)
		for i := range d.tokens {
			d.tokens[i] = d.Token(i)
		}
	}
	for i, tok := range tokens {
		d.tokens[i] = tok
	}
}

// Version returns the dataset version recorded in the header, which
// the decode tests read back.
func (sr *ShardReader) Version() string { return sr.version }
