package core

import (
	"fmt"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/quiz"
	"fpstudy/internal/stats"
)

// Claim is one of the paper's headline findings, checked against the
// regenerated data.
type Claim struct {
	Name   string
	Detail string
	Pass   bool
}

// HeadlineClaims evaluates the paper's main textual findings (Section
// IV) against this run's data. Every claim should pass on a calibrated
// cohort; the benchmark harness prints them.
//
// Every claim reads the cohorts' paper plans, the counts the figures
// are rendered from, so the claims cost no scan of their own and the
// numbers are bit-identical at any worker count. When a cohort cannot
// be scanned, the claims are one failing engine-error claim; when a
// cohort is empty, one failing no-respondents claim.
func (r *Results) HeadlineClaims() []Claim {
	var claims []Claim
	add := func(name string, pass bool, detail string, args ...interface{}) {
		claims = append(claims, Claim{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}
	p, err := r.mainPlan()
	var student *paperPlan
	if err == nil {
		student, err = r.studentPlan()
	}
	if err != nil {
		add("engine-error", false, "%v", err)
		return claims
	}
	if p.n == 0 || student.n == 0 {
		add("no-respondents", false, "%s", noRespondents)
		return claims
	}

	core := meanOutcomes(p.coreField)
	opt := meanOutcomes(p.optField)

	// "The score for the core quiz was 8.5/15, which is only slightly
	// better than would be expected by chance (7.5/15)."
	// Band: the floor is chance (quiz.CoreChance); the ceiling 10.5 is
	// chosen, the paper's 8.5 (paperdata.Figure12Core.Correct) plus two
	// questions.
	add("core-slightly-above-chance",
		core.Correct > quiz.CoreChance && core.Correct < 10.5,
		"mean core correct %.2f vs chance %.1f (paper: 8.5)", core.Correct, quiz.CoreChance)

	// "The incidence of Don't Know was < 15% for the core quiz."
	// Band: the paper's own numbers sit just above its text: Figure 12
	// gives 2.3/15 = 15.3% (paperdata.Figure12Core.DontKnow / 15) and
	// Figure 14's mean Don't Know column is 15.2%. The 17% ceiling is
	// chosen to admit those with sampling slack, so a passing run may
	// print a rate above the "<15%" it quotes.
	dkFrac := core.DontKnow / 15
	add("core-dk-below-15pct", dkFrac < 0.17,
		"core Don't Know rate %.1f%% (paper: <15%%)", 100*dkFrac)

	// "In the optimization quiz, participants answered Don't Know over
	// 2/3 of the time."
	// Band: Figure 12 gives 2.2/3 = 73.3% (paperdata.Figure12Opt); the
	// 60% floor is chosen, below the text's 2/3 for sampling slack.
	optDKFrac := opt.DontKnow / 3
	add("opt-dk-over-two-thirds", optDKFrac > 0.6,
		"optimization Don't Know rate %.1f%% (paper: >2/3)", 100*optDKFrac)

	// Identity and Divide By Zero answered incorrectly by most
	// participants.
	// Band: inc > 2c is chosen. The paper's ratios are far above it:
	// paperdata.Figure14Core gives 76.9/16.6 = 4.6 for Identity and
	// 76.4/11.6 = 6.6 for Divide By Zero.
	qs := quiz.CoreQuestions()
	for _, id := range []string{"core.identity", "core.divzero"} {
		qi := -1
		for i, q := range qs {
			if q.ID == id {
				qi = i
				break
			}
		}
		q := qs[qi]
		c := int(p.coreQ[qi][quiz.OutcomeCorrect])
		inc := int(p.coreQ[qi][quiz.OutcomeIncorrect])
		add("wrong-majority-"+q.Label, inc > c*2,
			"%s: %d incorrect vs %d correct (paper: ~77%% incorrect)", q.Label, inc, c)
	}

	// Factor: codebase size is the most predictive factor, topping out
	// around 11/15 for the largest codebases.
	// Band: the one-question margin is chosen; the paper's gap is
	// 11.0 - 7.4 = 3.6 (paperdata.Figure16ContribSizeEffect).
	s := r.MainSource().Schema()
	levelMean := func(f int, levels ...string) float64 {
		return stats.SummarizeCounts(p.levelScores(s, f, levels...)).Mean
	}
	big := levelMean(factorContribSizeCore, ">1,000,000 lines of code")
	small := levelMean(factorContribSizeCore, "100 to 1,000 lines of code")
	add("codebase-size-effect", big > small+1,
		"mean core score: >1M LoC %.2f vs 100-1k LoC %.2f (paper: ~11 vs ~7.5)", big, small)

	// Area: physical-science/engineering developers perform at chance.
	// Band: 6-9 is chosen, chance 7.5 +- 1.5; the paper's value for both
	// areas is 7.5 (paperdata.Figure17AreaEffect).
	pe := levelMean(factorAreaCore, "Other Physical Science Field", "Other Engineering Field")
	add("physsci-at-chance", pe > 6 && pe < 9,
		"PhysSci/Eng mean %.2f vs chance 7.5 (paper: at chance)", pe)

	// Suspicion: Invalid most suspicious, then Overflow, then the rest;
	// ~1/3 under-rate Invalid.
	// Band: 20-50% is chosen, 35 +- 15 points; the paper's value is
	// 100 - 65 = 35% (level 5 of Invalid in paperdata.Figure22Main).
	inv := p.suspicion("susp.invalid")
	ovf := p.suspicion("susp.overflow")
	und := p.suspicion("susp.underflow")
	add("suspicion-ordering",
		inv.MeanLevel() > ovf.MeanLevel() && ovf.MeanLevel() > und.MeanLevel(),
		"mean suspicion invalid %.2f > overflow %.2f > underflow %.2f",
		inv.MeanLevel(), ovf.MeanLevel(), und.MeanLevel())
	underRate := 100 - inv.Percent[4]
	add("invalid-underrated-by-third", underRate > 20 && underRate < 50,
		"%.1f%% rate Invalid below maximum suspicion (paper: ~1/3)", underRate)

	// Students are less suspicious of Underflow and Denorm.
	sUnd := student.suspicion("susp.underflow")
	sDen := student.suspicion("susp.denorm")
	mDen := p.suspicion("susp.denorm")
	add("students-relaxed-underflow-denorm",
		sUnd.MeanLevel() < und.MeanLevel() && sDen.MeanLevel() < mDen.MeanLevel(),
		"students underflow %.2f < main %.2f; denorm %.2f < %.2f",
		sUnd.MeanLevel(), und.MeanLevel(), sDen.MeanLevel(), mDen.MeanLevel())

	// The per-question shape: the six chance-level questions stay in a
	// chance band, per Figure 14.
	// Band: 40-68% correct is chosen. It contains the paper's six
	// boldfaced rows (paperdata.Figure14Core, 47.2-58.8% correct) with
	// room for sampling noise on each side.
	badBand := 0
	n := float64(p.n)
	for i, row := range paperdata.Figure14Core {
		if !row.ChanceLevel {
			continue
		}
		pc := 100 * float64(p.coreQ[i][quiz.OutcomeCorrect]) / n
		if pc < 40 || pc > 68 {
			badBand++
		}
	}
	add("chance-level-questions-band", badBand == 0,
		"%d of 6 chance-level questions left the 40-68%% band", badBand)

	return claims
}
