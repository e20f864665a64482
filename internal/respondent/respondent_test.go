package respondent

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
	"fpstudy/internal/stats"
	"fpstudy/internal/survey"
)

// Use a larger population than the paper's 199 for statistical
// assertions so that sampling noise does not flake the build; the paper
// comparisons in the benchmark harness use n=199.
const testN = 4000

var testPop = GenerateMainColumnar(42, testN, 0, nil, Instrumentation{})

// testGrades are testPop's per-respondent quiz tallies.
var testGrades = gradeCohort(testPop.Cols)

// coreTabs and optTabs are the core and optimization questions'
// grading tables, in paper order.
var coreTabs, optTabs = quiz.OutcomeTables(quiz.Columns())

// coreOutcome classifies respondent i's answer to core question k of a
// cohort through the grading tables.
func coreOutcome(d *colstore.Dataset, k, i int) quiz.PerQuestionOutcome {
	return coreTabs[k].ByCode[d.TF(coreTabs[k].Col, i)]
}

// tally counts outcomes, indexed by quiz.PerQuestionOutcome.
type tally [4]int

// grades are a cohort's per-respondent tallies: the core quiz, the
// three T/F optimization questions (the Figure 12 view) and all four.
type grades struct {
	Core, OptScored, OptAll []tally
}

// gradeCohort tallies every respondent of d through the grading tables.
func gradeCohort(d *colstore.Dataset) grades {
	n := d.Len()
	g := grades{make([]tally, n), make([]tally, n), make([]tally, n)}
	for i := 0; i < n; i++ {
		for k := range coreTabs {
			g.Core[i][coreOutcome(d, k, i)]++
		}
		for k := range optTabs {
			t := &optTabs[k]
			if t.TF {
				o := t.ByCode[d.TF(t.Col, i)]
				g.OptScored[i][o]++
				g.OptAll[i][o]++
			} else {
				g.OptAll[i][t.Outcome(d.SingleCode(t.Col, i))]++
			}
		}
	}
	return g
}

// likertLevels returns the answered levels of a Likert question.
func likertLevels(d *colstore.Dataset, id string) []int {
	ci := d.Schema.MustColumnIndex(id)
	var levels []int
	for i := 0; i < d.Len(); i++ {
		if lv := d.LikertLevel(ci, i); lv > 0 {
			levels = append(levels, lv)
		}
	}
	return levels
}

// testProfiles are testPop's backgrounds and abilities: profile i
// depends only on (seed, i), so drawing them again reproduces the ones
// generation drew.
var testProfiles = drawProfiles(42, testN)

func drawProfiles(seed int64, n int) []Profile {
	profiles := make([]Profile, n)
	base := parallel.StreamBase(seed, streamProfile)
	for i := range profiles {
		drawProfile(parallel.At(base, int64(i)), &profiles[i], nil)
	}
	return profiles
}

func TestDeterministic(t *testing.T) {
	a := GenerateMainColumnar(7, 50, 0, nil, Instrumentation{})
	b := GenerateMainColumnar(7, 50, 0, nil, Instrumentation{})
	pa, pb := drawProfiles(7, 50), drawProfiles(7, 50)
	for i := range pa {
		if pa[i].Area != pb[i].Area ||
			pa[i].Ability != pb[i].Ability {
			t.Fatal("generation not deterministic")
		}
	}
	var ja, jb bytes.Buffer
	if err := a.Cols.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Cols.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("answers differ between two generations")
	}
}

// TestResponsesValidate checks that every generated code is one the
// instrument offers: true/false codes, Likert levels within the scale,
// single choices among the listed options (no free text), and
// multi-choice bitsets over the listed options with no spill records.
func TestResponsesValidate(t *testing.T) {
	for name, d := range map[string]*colstore.Dataset{
		"main":     GenerateMainColumnar(3, 100, 0, nil, Instrumentation{}).Cols,
		"students": GenerateStudentsColumnar(4, 52, 0, Instrumentation{}),
	} {
		for ci := 0; ci < d.Schema.NumColumns(); ci++ {
			c := d.Schema.Column(ci)
			for i := 0; i < d.Len(); i++ {
				ok := true
				switch c.Kind {
				case survey.TrueFalse:
					ok = d.TF(ci, i) <= colstore.TFDontKnow
				case survey.Likert:
					ok = d.LikertLevel(ci, i) <= c.Scale
				case survey.SingleChoice:
					code := d.SingleCode(ci, i)
					ok = code >= 0 && int(code) <= len(c.Options)
				case survey.MultiChoice:
					ok = d.RawU64(ci)[i]>>uint(len(c.Options)) == 0
				}
				if !ok {
					t.Fatalf("%s: respondent %d, %s: code not offered by the instrument", name, i, c.ID)
				}
			}
			if c.Kind == survey.MultiChoice && d.MultiSpills(ci) != nil {
				t.Fatalf("%s: %s has spill records", name, c.ID)
			}
		}
		if d.InternedStrings() != 0 {
			t.Fatalf("%s: generated cohort interned %d strings", name, d.InternedStrings())
		}
	}
}

func TestBackgroundMarginalsMatchPaper(t *testing.T) {
	d := testPop.Cols
	tal := map[string]int{}
	ci := d.Schema.MustColumnIndex(quiz.BGPosition)
	for i := 0; i < d.Len(); i++ {
		tal[d.SingleLabel(ci, i)]++
	}
	for _, e := range paperdata.Figure1Positions {
		wantPct := paperdata.Percent(e, paperdata.NMain)
		gotPct := 100 * float64(tal[e.Label]) / float64(testN)
		if math.Abs(gotPct-wantPct) > 3 {
			t.Errorf("position %q: %.1f%%, paper %.1f%%", e.Label, gotPct, wantPct)
		}
	}
	// Multi-select: FP languages.
	tal = map[string]int{}
	ci = d.Schema.MustColumnIndex(quiz.BGFPLanguages)
	for i := 0; i < d.Len(); i++ {
		d.ForEachMultiChoice(ci, i, func(label string) { tal[label]++ })
	}
	for _, e := range paperdata.Figure6FPLanguages {
		wantPct := paperdata.Percent(e, paperdata.NMain)
		gotPct := 100 * float64(tal[e.Label]) / float64(testN)
		if math.Abs(gotPct-wantPct) > 4 {
			t.Errorf("language %q: %.1f%%, paper %.1f%%", e.Label, gotPct, wantPct)
		}
	}
}

// sumTallies adds up per-respondent tallies.
func sumTallies(ts []tally) tally {
	var sum tally
	for _, tl := range ts {
		for o, c := range tl {
			sum[o] += c
		}
	}
	return sum
}

func TestCoreScoreMatchesFigure12(t *testing.T) {
	sum := sumTallies(testGrades.Core)
	n := float64(testN)
	meanCorrect := float64(sum[quiz.OutcomeCorrect]) / n
	meanIncorrect := float64(sum[quiz.OutcomeIncorrect]) / n
	meanDK := float64(sum[quiz.OutcomeDontKnow]) / n
	if math.Abs(meanCorrect-paperdata.Figure12Core.Correct) > 0.4 {
		t.Errorf("core mean correct %.2f, paper %.1f", meanCorrect, paperdata.Figure12Core.Correct)
	}
	if math.Abs(meanIncorrect-paperdata.Figure12Core.Incorrect) > 0.4 {
		t.Errorf("core mean incorrect %.2f, paper %.1f", meanIncorrect, paperdata.Figure12Core.Incorrect)
	}
	if math.Abs(meanDK-paperdata.Figure12Core.DontKnow) > 0.4 {
		t.Errorf("core mean DK %.2f, paper %.1f", meanDK, paperdata.Figure12Core.DontKnow)
	}
	// Headline: slightly above chance but far from mastery.
	if meanCorrect < 7.5 || meanCorrect > 10 {
		t.Errorf("core mean %.2f outside the paper's story", meanCorrect)
	}
}

func TestOptScoreMatchesFigure12(t *testing.T) {
	// Figure 12's optimization row covers only the three T/F
	// questions (Standard-compliant Level is excluded as not T/F).
	sum := sumTallies(testGrades.OptScored)
	n := float64(testN)
	if got := float64(sum[quiz.OutcomeCorrect]) / n; math.Abs(got-paperdata.Figure12Opt.Correct) > 0.25 {
		t.Errorf("opt mean correct %.2f, paper %.1f", got, paperdata.Figure12Opt.Correct)
	}
	if got := float64(sum[quiz.OutcomeDontKnow]) / n; math.Abs(got-paperdata.Figure12Opt.DontKnow) > 0.3 {
		t.Errorf("opt mean DK %.2f, paper %.1f", got, paperdata.Figure12Opt.DontKnow)
	}
	// The story: developers answer Don't Know over 2/3 of the time on
	// a per-question basis.
	dkFrac := float64(sum[quiz.OutcomeDontKnow]) / (n * 3)
	if dkFrac < 0.6 {
		t.Errorf("opt DK fraction %.2f, want > 0.6", dkFrac)
	}
}

func TestPerQuestionBreakdownMatchesFigure14(t *testing.T) {
	qs := quiz.CoreQuestions()
	for i, q := range qs {
		row := paperdata.Figure14Core[i]
		var c, inc, dk int
		for r := 0; r < testN; r++ {
			switch coreOutcome(testPop.Cols, i, r) {
			case quiz.OutcomeCorrect:
				c++
			case quiz.OutcomeIncorrect:
				inc++
			case quiz.OutcomeDontKnow:
				dk++
			}
		}
		n := float64(testN)
		if got := 100 * float64(c) / n; math.Abs(got-row.Correct) > 4 {
			t.Errorf("%s correct %.1f%%, paper %.1f%%", q.Label, got, row.Correct)
		}
		if got := 100 * float64(dk) / n; math.Abs(got-row.DontKnow) > 4 {
			t.Errorf("%s DK %.1f%%, paper %.1f%%", q.Label, got, row.DontKnow)
		}
	}
}

func TestWrongMajorityQuestions(t *testing.T) {
	// Identity and Divide-by-Zero must be answered incorrectly by a
	// majority — the paper's most alarming finding.
	for _, id := range []string{"core.identity", "core.divzero"} {
		k := slices.IndexFunc(quiz.CoreQuestions(), func(q quiz.CoreQuestion) bool { return q.ID == id })
		var c, inc int
		for r := 0; r < testN; r++ {
			switch coreOutcome(testPop.Cols, k, r) {
			case quiz.OutcomeCorrect:
				c++
			case quiz.OutcomeIncorrect:
				inc++
			}
		}
		if inc <= c*2 {
			t.Errorf("%s: incorrect %d vs correct %d — paper has ~77%% incorrect", id, inc, c)
		}
	}
}

func TestFactorEffectContribSize(t *testing.T) {
	// Larger contributed codebases => higher core scores, monotone
	// (within noise), with a spread of roughly 3-4 points.
	order := []string{
		"100 to 1,000 lines of code",
		"1,001 to 10,000 lines of code",
		"10,001 to 100,000 lines of code",
		"100,001 to 1,000,000 lines of code",
		">1,000,000 lines of code",
	}
	means := map[string]float64{}
	counts := map[string]int{}
	for i, tl := range testGrades.Core {
		p := testProfiles[i]
		means[p.ContribSize] += float64(tl[quiz.OutcomeCorrect])
		counts[p.ContribSize]++
	}
	for k := range means {
		means[k] /= float64(counts[k])
	}
	for i := 1; i < len(order); i++ {
		if means[order[i]] < means[order[i-1]]-0.3 {
			t.Errorf("size effect not monotone: %q %.2f < %q %.2f",
				order[i], means[order[i]], order[i-1], means[order[i-1]])
		}
	}
	spread := means[">1,000,000 lines of code"] - means["100 to 1,000 lines of code"]
	if spread < 1.5 || spread > 5 {
		t.Errorf("size effect spread %.2f, want ~3-4", spread)
	}
	if means[">1,000,000 lines of code"] < 10 {
		t.Errorf(">1M mean %.2f, paper ~11", means[">1,000,000 lines of code"])
	}
}

func TestFactorEffectArea(t *testing.T) {
	var csLike, physEng []float64
	for i, tl := range testGrades.Core {
		p := testProfiles[i]
		score := float64(tl[quiz.OutcomeCorrect])
		switch p.Area {
		case "Computer Science", "Computer Engineering", "Electrical Engineering":
			csLike = append(csLike, score)
		case "Other Physical Science Field", "Other Engineering Field":
			physEng = append(physEng, score)
		}
	}
	mCS, mPE := stats.Mean(csLike), stats.Mean(physEng)
	if mCS-mPE < 1.5 {
		t.Errorf("CS-like %.2f vs PhysSci/Eng %.2f: gap too small", mCS, mPE)
	}
	// PhysSci/Eng performs at the level of chance (paper: disturbing).
	if math.Abs(mPE-7.5) > 1.2 {
		t.Errorf("PhysSci/Eng mean %.2f, paper ~chance 7.5", mPE)
	}
}

func TestFactorEffectRoleOnOptQuiz(t *testing.T) {
	var swe, support []float64
	for i, tl := range testGrades.OptAll {
		p := testProfiles[i]
		score := float64(tl[quiz.OutcomeCorrect])
		switch p.Role {
		case "My main role is as a software engineer":
			swe = append(swe, score)
		case "I develop software to support my main role":
			support = append(support, score)
		}
	}
	if stats.Mean(swe) <= stats.Mean(support) {
		t.Errorf("opt quiz: swe %.2f should beat support %.2f",
			stats.Mean(swe), stats.Mean(support))
	}
}

func TestSuspicionDistributions(t *testing.T) {
	items := quiz.SuspicionItems()
	for gi, tc := range []struct {
		name  string
		ds    *colstore.Dataset
		dists []paperdata.SuspicionDist
	}{
		{"main", testPop.Cols, paperdata.Figure22Main},
		{"students", GenerateStudentsColumnar(5, 5000, 0, Instrumentation{}), paperdata.Figure22Student},
	} {
		for i, it := range items {
			d := stats.NewLikertDist(likertLevels(tc.ds, it.ID), 5)
			for l := 0; l < 5; l++ {
				if math.Abs(d.Percent[l]-tc.dists[i].Percent[l]) > 4 {
					t.Errorf("%s %s level %d: %.1f%%, target %.1f%%",
						tc.name, it.ID, l+1, d.Percent[l], tc.dists[i].Percent[l])
				}
			}
		}
		_ = gi
	}
}

func TestSuspicionOrdering(t *testing.T) {
	// Invalid > Overflow > Underflow/Precision/Denorm in mean level.
	mean := func(id string) float64 {
		return stats.NewLikertDist(likertLevels(testPop.Cols, id), 5).MeanLevel()
	}
	inv, ovf := mean("susp.invalid"), mean("susp.overflow")
	und, prec, den := mean("susp.underflow"), mean("susp.precision"), mean("susp.denorm")
	if !(inv > ovf && ovf > und && ovf > prec && ovf > den) {
		t.Errorf("suspicion ordering broken: inv=%.2f ovf=%.2f und=%.2f prec=%.2f den=%.2f",
			inv, ovf, und, prec, den)
	}
	// About 1/3 of respondents under-rate Invalid (level < 5).
	below := 0
	invalid := likertLevels(testPop.Cols, "susp.invalid")
	total := len(invalid)
	for _, lv := range invalid {
		if lv < 5 {
			below++
		}
	}
	frac := float64(below) / float64(total)
	if frac < 0.25 || frac > 0.45 {
		t.Errorf("invalid under-rating fraction %.2f, paper ~1/3", frac)
	}
}

func TestStudentsLessSuspiciousOfUnderflowDenorm(t *testing.T) {
	students := GenerateStudentsColumnar(6, 5000, 0, Instrumentation{})
	meanOf := func(d *colstore.Dataset, id string) float64 {
		return stats.NewLikertDist(likertLevels(d, id), 5).MeanLevel()
	}
	for _, id := range []string{"susp.underflow", "susp.denorm", "susp.overflow"} {
		if meanOf(students, id) >= meanOf(testPop.Cols, id) {
			t.Errorf("%s: students should be less suspicious", id)
		}
	}
}

func TestAbilityDistribution(t *testing.T) {
	abilities := make([]float64, len(testProfiles))
	for i, p := range testProfiles {
		abilities[i] = p.Ability
	}
	s := stats.Summarize(abilities)
	if math.Abs(s.Mean) > 0.15 {
		t.Errorf("ability mean %.3f, want ~0 (centered)", s.Mean)
	}
	if s.StdDev < 0.2 || s.StdDev > 1.5 {
		t.Errorf("ability sd %.3f out of plausible range", s.StdDev)
	}
}

func TestShortListsPredictLowerScores(t *testing.T) {
	// The paper: respondents reporting no informal training at all (or
	// a near-empty language list) score worse; what the list contains
	// does not matter.
	var short, normal []float64
	for i, tl := range testGrades.Core {
		p := testProfiles[i]
		score := float64(tl[quiz.OutcomeCorrect])
		if p.InformalMask == 0 || bits.OnesCount64(p.FPLanguagesMask) <= 1 {
			short = append(short, score)
		} else {
			normal = append(normal, score)
		}
	}
	if len(short) < 20 {
		t.Skipf("only %d short-list respondents in sample", len(short))
	}
	if stats.Mean(short) >= stats.Mean(normal) {
		t.Errorf("short-list mean %.2f should be below normal %.2f",
			stats.Mean(short), stats.Mean(normal))
	}
}

func TestGenerateMainColumnarOverride(t *testing.T) {
	// Force everyone into the largest-codebase bucket: the cohort's
	// mean core score must rise well above the untreated cohort's,
	// because offsets are calibrated against the untreated world.
	n := 1500
	base := GenerateMainColumnar(123, n, 0, nil, Instrumentation{})
	treated := GenerateMainColumnar(123, n, 0, func(p *Profile) {
		p.ContribSize = ">1,000,000 lines of code"
	}, Instrumentation{})
	meanOf := func(pop *Population) float64 {
		s := 0
		for _, tl := range gradeCohort(pop.Cols).Core {
			s += tl[quiz.OutcomeCorrect]
		}
		return float64(s) / float64(pop.Cols.Len())
	}
	mb, mt := meanOf(base), meanOf(treated)
	if mt < mb+1.0 {
		t.Fatalf("forcing >1M LoC moved mean only %.2f -> %.2f", mb, mt)
	}
	// The override is reflected in the background answers.
	ci := treated.Cols.Schema.MustColumnIndex(quiz.BGContribSize)
	for i := 0; i < 20; i++ {
		if treated.Cols.SingleLabel(ci, i) != ">1,000,000 lines of code" {
			t.Fatal("override not recorded in responses")
		}
	}
	// The treated cohort's bytes are pinned, so any change to the
	// override path shows here.
	var buf bytes.Buffer
	if err := treated.Cols.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenTreatedSHA {
		t.Errorf("treated cohort hash = %s, want %s", got, goldenTreatedSHA)
	}
}

// goldenTreatedSHA is the serialized seed-123, n=1500 cohort with every
// contributed codebase forced to >1M lines.
const goldenTreatedSHA = "8a0c65d4f9add64be62c4ee3475917a6c795483ec6bd9cffb1b806917496219d"

// TestGenerateTreatedMatchesGenerateMainColumnar checks that scoring
// several treated cohorts from shared draws yields, per override,
// exactly the correct core answers of the cohort GenerateMainColumnar
// generates for that override alone, graded: at workers 1 and 4, from
// an empty cohort through one past a block boundary to one past
// calibrationCap. At n=0 it returns zeros without calibrating.
func TestGenerateTreatedMatchesGenerateMainColumnar(t *testing.T) {
	// parallel.Workers clamps worker counts to GOMAXPROCS.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const seed = 77
	var overrides []func(*Profile)
	for _, level := range []string{"None", "One or more courses"} {
		overrides = append(overrides, func(p *Profile) { p.FormalTraining = level })
	}
	overrides = append(overrides, func(p *Profile) { p.Area = "Mathematics" })
	sizes := []int{0, 1, 600, 4097, calibrationCap + 4464}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, n := range sizes {
		for _, workers := range []int{1, 4} {
			got := TreatedCoreCorrect(seed, n, workers, overrides)
			if len(got) != len(overrides) {
				t.Fatalf("n=%d workers=%d: %d counts, want %d", n, workers, len(got), len(overrides))
			}
			for k, override := range overrides {
				cols := GenerateMainColumnar(seed, n, workers, override, Instrumentation{}).Cols
				want := 0
				for _, tl := range gradeCohort(cols).Core {
					want += tl[quiz.OutcomeCorrect]
				}
				if got[k] != want {
					t.Errorf("n=%d workers=%d override %d: %d correct, want %d", n, workers, k, got[k], want)
				}
			}
		}
	}
	// The empty cohort allocates only its zero counts: no calibration.
	if allocs := testing.AllocsPerRun(1, func() { TreatedCoreCorrect(seed, 0, 4, overrides) }); allocs > 1 {
		t.Errorf("n=0: %.0f allocations, want only the counts", allocs)
	}
}

// TestCalibrationReadsOnlyCapPrefix pins the property that lets
// calibratePrefix draw only calibrationCap untreated abilities:
// the models fitted on a larger cohort equal those fitted on its
// prefix.
func TestCalibrationReadsOnlyCapPrefix(t *testing.T) {
	core, opt := drawAbilities(0, 5, calibrationCap+500, true)
	full := calibrateModels(0, core, opt, quizSpecs())
	prefix := calibrateModels(0, core[:calibrationCap], opt[:calibrationCap], quizSpecs())
	if !reflect.DeepEqual(full, prefix) {
		t.Fatal("calibration depends on profiles past calibrationCap")
	}
}

func TestGenerateStudentsShape(t *testing.T) {
	d := GenerateStudentsColumnar(9, 52, 0, Instrumentation{})
	if d.Len() != 52 {
		t.Fatalf("%d students", d.Len())
	}
	var susp []int
	for _, it := range quiz.SuspicionItems() {
		susp = append(susp, d.Schema.MustColumnIndex(it.ID))
	}
	for i := 0; i < d.Len(); i++ {
		for ci := 0; ci < d.Schema.NumColumns(); ci++ {
			answered := d.Schema.Column(ci).Kind == survey.Likert && d.LikertLevel(ci, i) != 0
			if answered != slices.Contains(susp, ci) {
				t.Fatalf("student %d: %s answered=%v, want the suspicion questions only",
					i, d.Schema.Column(ci).ID, answered)
			}
		}
	}
}
