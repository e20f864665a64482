package quiz

import (
	"reflect"
	"testing"

	"fpstudy/internal/colstore"
)

var queryValueNames = []string{
	"core.score", "core.incorrect", "core.dontknow", "core.unanswered",
	"opt.correct", "opt.incorrect", "opt.dontknow", "opt.unanswered",
	"optall.score", "optall.incorrect", "optall.dontknow", "optall.unanswered",
}

// TestQueryValueZeroAlloc pins that resolving a score value on the
// canonical schema returns the prebuilt tables instead of building them
// per query.
func TestQueryValueZeroAlloc(t *testing.T) {
	s := Columns()
	if _, err := QueryValue(s, "core.score"); err != nil { // warm the one-time build
		t.Fatal(err)
	}
	for _, name := range queryValueNames {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := QueryValue(s, name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("QueryValue(%q) allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestQueryValueCachedMatchesFresh checks the canonical schema's shared
// values equal the ones built on the fly for an equal schema that is not
// the canonical one.
func TestQueryValueCachedMatchesFresh(t *testing.T) {
	other := colstore.MustSchema(Instrument())
	if other == Columns() {
		t.Fatal("fixture schema is the canonical one")
	}
	for _, name := range queryValueNames {
		cached, err := QueryValue(Columns(), name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := QueryValue(other, name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			t.Errorf("%s: cached value differs from one built on the fly", name)
		}
	}
	if _, err := QueryValue(Columns(), "core.bogus"); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := QueryValue(Columns(), "bogus.score"); err == nil {
		t.Error("unknown quiz accepted")
	}
}
