package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// outsideAnswer draws a random answer for q along every storage path a
// generated cohort never takes: free-text single-choice answers,
// verbatim (reordered) multi-choice lists and free-text multi-choice
// additions. "Faculty", a Figure 1 option, is typed as a free-text
// language so that the arena holds an option label.
func outsideAnswer(rng *rand.Rand, q survey.Question) (survey.Answer, bool) {
	switch q.Kind {
	case survey.TrueFalse:
		tf := []string{survey.AnswerTrue, survey.AnswerFalse, survey.AnswerDontKnow}
		return survey.Answer{Choice: tf[rng.Intn(len(tf))]}, true
	case survey.Likert:
		return survey.Answer{Level: 1 + rng.Intn(q.Scale)}, true
	case survey.SingleChoice:
		switch rng.Intn(10) {
		case 0:
			return survey.Answer{Choice: "write-in &<js>"}, true
		case 1:
			return survey.Answer{Choice: "Astrophysics"}, true
		}
		return survey.Answer{Choice: q.Options[rng.Intn(len(q.Options))]}, true
	case survey.MultiChoice:
		var choices []string
		for _, o := range q.Options {
			if rng.Intn(3) == 0 {
				choices = append(choices, o)
			}
		}
		switch rng.Intn(4) {
		case 0:
			if len(choices) > 1 {
				j := rng.Intn(len(choices) - 1)
				choices[j], choices[j+1] = choices[j+1], choices[j]
			}
		case 1:
			choices = append(choices, "Befunge-93", "Faculty")
		}
		if choices == nil {
			return survey.Answer{}, false
		}
		return survey.Answer{Choices: choices}, true
	}
	return survey.Answer{}, false
}

// outsideCohort builds an n-respondent cohort through the JSON loader,
// as fpreport -data reads a survey export. After loading, every 97th
// respondent's position is set to a free-text reference whose text is
// the Figure 1 option "Faculty": a typed label equal to an option,
// which the figure counts under that option.
func outsideCohort(t *testing.T, n int) *colstore.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	ins := quiz.Instrument()
	built := quiz.Columns().NewDataset(ins.Version, n)
	qs := ins.Questions()
	for i := 0; i < n; i++ {
		for ci, q := range qs {
			if rng.Intn(6) == 0 {
				continue
			}
			if a, ok := outsideAnswer(rng, q); ok {
				if err := built.SetAnswer(ci, i, a); err != nil {
					t.Fatalf("SetAnswer: %v", err)
				}
			}
		}
	}
	var js bytes.Buffer
	if err := built.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	d, info, err := colstore.Load(quiz.Columns(), &js, colstore.IOOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if info.Format != colstore.FormatJSON {
		t.Fatalf("loaded as %v, want JSON", info.Format)
	}
	ref := -1
	for k, s := range d.ArenaStrings() {
		if s == "Faculty" {
			ref = k
		}
	}
	if ref < 0 {
		t.Fatal("arena holds no typed \"Faculty\"")
	}
	ci := d.Schema.MustColumnIndex(quiz.BGPosition)
	for i := 0; i < n; i += 97 {
		d.SetSingle(ci, i, int32(-ref-1))
	}
	return d
}

// shardOf encodes d as FPDS and opens it as a streamed shard.
func shardOf(t *testing.T, d *colstore.Dataset, opt colstore.IOOptions) *colstore.ShardReader {
	t.Helper()
	var bin bytes.Buffer
	if err := d.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	sr, err := colstore.NewShardReader(d.Schema, bytes.NewReader(bin.Bytes()), int64(bin.Len()), opt)
	if err != nil {
		t.Fatalf("NewShardReader: %v", err)
	}
	return sr
}

// goldenOutsideBackground pins Figures 1-11 rendered from
// outsideCohort(2*query.BlockRows+300). The digests were recorded from
// the per-question tallies that preceded the paper plan's background
// counts.
var goldenOutsideBackground = [11]string{
	"81962b058a332a2c0648be42015c7e5a9b6ecb30c683b5c8fd05d6a7f1355617",
	"88585a8cce5fcf9af8e52d2f4fc8549a9abaa76e9b96c3a1aee1c2c862869069",
	"68bb85414bf69dc53551274907295af0866e1c86c41fa44c03dbee06421e5b56",
	"5c18d82831e4fe7152064a4035b2a0feae5b297316693419d43669a4068f7a81",
	"d0276ceda1fe32bbf99138bac0a4bd0bda15c9a365170031f6ef16e85fb26bc4",
	"405c24f1f9f9c3c6c521f797cdd53afaba59e785cb86519c276112a779f15741",
	"098f0838b40c406b2e6d66521c117b9a5ec7d76bd17e768c10e7c904a376ebe6",
	"63438daeb8f1b8c0bac5020735db7add24c3f5e87e0d55f9f1e02b5b18dc50e3",
	"a908d38bd20b620c1ae953eb0b9acea08f2ce0b5c024188872f6c98f38056fbb",
	"05a4b00289f24c72b81844a95d8ef40e5635764fb140f89e9f8fe37a7f0644e6",
	"f1e3f4bc27467600f79015931e3b8e84365240b0304d97afadb4ebbb1f05442a",
}

// TestOutsideCohortBackgroundFigures pins Figures 1-11 on a cohort with
// free text and multi-choice spills, for the in-memory source and the
// streamed shard, at workers 1, 4 and 16.
func TestOutsideCohortBackgroundFigures(t *testing.T) {
	raiseGOMAXPROCS(t, 16)
	d := outsideCohort(t, 2*query.BlockRows+300)
	sr := shardOf(t, d, colstore.IOOptions{})
	for _, workers := range []int{1, 4, 16} {
		s := Study{Seed: 42, NStudent: 52, Workers: workers}
		for _, path := range []string{"memory", "shard"} {
			r, err := s.ResultsFromColumns(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if path == "shard" {
				r.mainSrc = query.NewShardSource(sr)
			}
			for fig := 1; fig <= 11; fig++ {
				sum := sha256.Sum256([]byte(r.Figure(fig).String()))
				if got, want := hex.EncodeToString(sum[:]), goldenOutsideBackground[fig-1]; got != want {
					t.Errorf("%s workers=%d: figure %d digest %s, want %s", path, workers, fig, got, want)
				}
			}
		}
	}
}

// TestBackgroundCountsVsReference pins the plan's background counts
// against a row-by-row walk with survey.Instrument.Tally's semantics
// (an "unanswered" bucket, one count per selected multi-choice option,
// free text under its label) on cohorts with free text and spills, for
// the in-memory source and the streamed shard at workers 1, 4 and 16.
func TestBackgroundCountsVsReference(t *testing.T) {
	raiseGOMAXPROCS(t, 16)
	for _, n := range []int{40, query.BlockRows + 108} {
		d := outsideCohort(t, n)
		s := d.Schema
		want := make([]map[string]int, len(backgroundFigures))
		for i, bf := range backgroundFigures {
			ci := s.MustColumnIndex(bf.question)
			want[i] = map[string]int{}
			for row := 0; row < n; row++ {
				switch s.Column(ci).Kind {
				case survey.SingleChoice:
					if lbl := d.SingleLabel(ci, row); lbl == "" {
						want[i]["unanswered"]++
					} else {
						want[i][lbl]++
					}
				case survey.MultiChoice:
					if d.MultiUnanswered(ci, row) {
						want[i]["unanswered"]++
					} else {
						d.ForEachMultiChoice(ci, row, func(label string) { want[i][label]++ })
					}
				default:
					t.Fatalf("background question %s is %s", bf.question, s.Column(ci).Kind)
				}
			}
		}
		sources := map[string]query.Source{
			"memory": query.NewDatasetSource(d),
			"shard":  query.NewShardSource(shardOf(t, d, colstore.IOOptions{})),
		}
		for _, workers := range []int{1, 4, 16} {
			for name, src := range sources {
				p, err := scanPaper(src, workers)
				if err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, name, workers, err)
				}
				for i, bf := range backgroundFigures {
					if got := p.background(src, i); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("n=%d %s workers=%d question %s: counts diverge\n got %v\nwant %v",
							n, name, workers, bf.question, got, want[i])
					}
				}
			}
		}
	}
}
