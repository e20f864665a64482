package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"fpstudy/internal/colstore"
	"fpstudy/internal/survey"
)

// shape is the part of a query that sets most of its cost: filter
// term count, grouping, aggregate and mode.
type shape struct {
	terms  int
	group  bool
	agg    string // "count", "likert" (mean of a Likert column) or a quiz score
	stream bool
}

// shapes holds every shape once, so all weigh the same: there is no
// record of real query traffic to weight them by. Streaming is what
// fpreport -query and fpsurvey slice do with a .fpds file; in memory
// stands for their row-JSON and regenerated-cohort inputs.
var shapes = func() []shape {
	var out []shape
	for terms := 0; terms <= 2; terms++ {
		for _, group := range []bool{false, true} {
			for _, agg := range []string{"count", "likert", "core.score", "opt.score"} {
				for _, stream := range []bool{false, true} {
					out = append(out, shape{terms, group, agg, stream})
				}
			}
		}
	}
	return out
}()

// genQueries draws about count queries over the query.Parse grammar
// from seed: whole sets of shapes (at least one), so the latency
// percentiles do not drift with the seed's luck in drawing shapes. The
// seed draws the order, the columns and the values: filter terms on
// true/false, Likert, single- and multi-choice columns, a group-by
// column, and the Likert column a mean reads.
func genQueries(seed int64, s *colstore.Schema, count int) []plannedQuery {
	rng := rand.New(rand.NewSource(seed))
	byKind := map[survey.Kind][]*colstore.Col{}
	for ci := 0; ci < s.NumColumns(); ci++ {
		c := s.Column(ci)
		byKind[c.Kind] = append(byKind[c.Kind], c)
	}
	kinds := []survey.Kind{survey.TrueFalse, survey.Likert, survey.SingleChoice, survey.MultiChoice}
	groupKinds := []survey.Kind{survey.TrueFalse, survey.Likert, survey.SingleChoice}
	pick := func(k survey.Kind) *colstore.Col {
		cs := byKind[k]
		return cs[rng.Intn(len(cs))]
	}

	var todo []shape
	for sets := max(1, count/len(shapes)); sets > 0; sets-- {
		todo = append(todo, shapes...)
	}
	rng.Shuffle(len(todo), func(i, j int) { todo[i], todo[j] = todo[j], todo[i] })
	out := make([]plannedQuery, len(todo))
	for i, sh := range todo {
		var filter []string
		for t := 0; t < sh.terms; t++ {
			filter = append(filter, term(rng, pick(kinds[rng.Intn(len(kinds))])))
		}
		by := ""
		if sh.group {
			by = pick(groupKinds[rng.Intn(len(groupKinds))]).ID
		}
		agg := sh.agg
		switch agg {
		case "likert":
			agg = "mean:" + pick(survey.Likert).ID
		case "core.score", "opt.score":
			agg = "mean:" + agg
		}
		out[i] = plannedQuery{expr: fmt.Sprintf("%s/%s/%s", strings.Join(filter, " & "), by, agg), stream: sh.stream}
	}
	return out
}

// term draws one filter term on column c.
func term(rng *rand.Rand, c *colstore.Col) string {
	switch c.Kind {
	case survey.TrueFalse:
		ops := []string{"=", "!="}
		vals := []string{"true", "false", "dontknow", "unanswered"}
		return c.ID + ops[rng.Intn(len(ops))] + vals[rng.Intn(len(vals))]
	case survey.Likert:
		ops := []string{"=", "!=", ">=", "<="}
		return c.ID + ops[rng.Intn(len(ops))] + strconv.Itoa(1+rng.Intn(c.Scale))
	case survey.SingleChoice:
		if rng.Intn(3) == 0 {
			return c.ID + "!=" + label(rng, c)
		}
		return c.ID + "=" + labels(rng, c)
	default:
		ops := []string{"~", "~="}
		return c.ID + ops[rng.Intn(len(ops))] + labels(rng, c)
	}
}

// labels draws one or two option labels as a "|" alternation.
func labels(rng *rand.Rand, c *colstore.Col) string {
	a, b := label(rng, c), label(rng, c)
	if a == b || rng.Intn(2) == 0 {
		return a
	}
	return a + "|" + b
}

// label draws one option label the expression syntax can carry: labels
// holding a separator or an operator character are skipped.
func label(rng *rand.Rand, c *colstore.Col) string {
	for {
		l := c.Options[rng.Intn(len(c.Options))]
		if !strings.ContainsAny(l, "&|=~!<>") {
			return l
		}
	}
}
