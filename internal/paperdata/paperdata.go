// Package paperdata records the published numbers from Dinda & Hetland,
// "Do Developers Understand IEEE Floating Point?" (IPDPS 2018), as Go
// data. The respondent model calibrates against these targets and the
// benchmark harness compares regenerated figures to them.
//
// Figures 1-15 are exact values from the paper's tables. Figures 16-22
// are published only as charts; the values here are digitized estimates
// consistent with the paper's text (each use site documents the
// shape properties that must hold rather than exact magnitudes).
package paperdata

// NMain is the size of the main survey population.
const NMain = 199

// NStudent is the size of the student suspicion-quiz population.
const NStudent = 52

// CountEntry is one row of an n/% table.
type CountEntry struct {
	Label string
	N     int
}

// Figure1Positions: positions of participants.
var Figure1Positions = []CountEntry{
	{"Ph.D. student", 73},
	{"Faculty", 49},
	{"Software engineer", 23},
	{"Research staff", 17},
	{"Research scientist", 11},
	{"M.S. student", 8},
	{"Undergraduate", 7},
	{"Postdoc", 4},
	{"Manager", 3},
	{"Other", 5},
}

// Figure2Areas: areas of formal training. Single-count areas are
// grouped as "Other (single)" entries preserved individually.
var Figure2Areas = []CountEntry{
	{"Computer Science", 80},
	{"Other Physical Science Field", 38},
	{"Other Engineering Field", 26},
	{"Computer Engineering", 19},
	{"Mathematics", 10},
	{"Electrical Engineering", 9},
	{"Economics", 2},
	{"Other Non-Physical Science Field", 2},
	{"CS&Math", 2},
	{"CS&CE", 2},
	{"Political Science and Statistics", 1},
	{"Social Sciences", 1},
	{"Robotics", 1},
	{"Econometrics", 1},
	{"Biomedical Engineering", 1},
	{"MMSS", 1},
	{"Statistics", 1},
	{"Mechanical Engineering", 1},
	{"Unreported", 1},
}

// Figure3FormalTraining: formal training in floating point.
var Figure3FormalTraining = []CountEntry{
	{"One or more lectures in course", 62},
	{"None", 52},
	{"One or more weeks within a course", 49},
	{"One or more courses", 35},
	{"Not reported", 1},
}

// Figure4InformalTraining: informal training (multi-select, top 5).
var Figure4InformalTraining = []CountEntry{
	{"Googled when necessary", 138},
	{"Read about it", 136},
	{"Discussed with coworkers/etc", 89},
	{"Trained by adviser/mentor", 38},
	{"Watched video", 22},
}

// Figure5Roles: software development roles.
var Figure5Roles = []CountEntry{
	{"I develop software to support my main role", 119},
	{"My main role is as a software engineer", 50},
	{"I manage others who develop software to support my main role", 19},
	{"My main role is to manage software engineers", 6},
	{"Not Reported", 5},
}

// Figure6FPLanguages: floating point language experience (multi-select,
// the 13 languages with n >= 5).
var Figure6FPLanguages = []CountEntry{
	{"Python", 142},
	{"C", 139},
	{"C++", 136},
	{"Matlab", 105},
	{"Java", 100},
	{"Fortran", 65},
	{"R", 48},
	{"C#", 26},
	{"Perl", 25},
	{"Scheme/Racket", 17},
	{"Haskell", 12},
	{"ML", 9},
	{"JavaScript", 6},
}

// Figure7ArbPrec: arbitrary precision language experience (multi-select,
// the 9 entries with n >= 5).
var Figure7ArbPrec = []CountEntry{
	{"Mathematica", 71},
	{"Maple", 29},
	{"Other language", 20},
	{"MPFR/GNU MultiPrecision Library", 19},
	{"Scheme/Racket/LISP with BigNums", 13},
	{"Other library", 13},
	{"Matlab MultiPrecision Toolbox", 10},
	{"Haskell with arb. prec. and rationals", 8},
	{"Macsyma", 5},
}

// Figure8ContribSize: contributed codebase sizes.
var Figure8ContribSize = []CountEntry{
	{"1,001 to 10,000 lines of code", 79},
	{"10,001 to 100,000 lines of code", 65},
	{"100 to 1,000 lines of code", 27},
	{"100,001 to 1,000,000 lines of code", 17},
	{">1,000,000 lines of code", 9},
	{"<100 lines of code", 1},
	{"Not Reported", 1},
}

// Figure9ContribExtent: floating point extent in the contributed
// codebase.
var Figure9ContribExtent = []CountEntry{
	{"FP incidental", 77},
	{"FP intrinsic", 63},
	{"FP intrinsic, I did numerical correctness", 29},
	{"FP intrinsic, other team did numerical correctness", 10},
	{"FP intrinsic, my team did numeric correctness", 10},
	{"No FP involved", 9},
	{"No Report", 1},
}

// Figure10InvolvedSize: involved codebase sizes.
var Figure10InvolvedSize = []CountEntry{
	{"10,001 to 100,000 lines of code", 61},
	{"1,001 to 10,000 lines of code", 53},
	{">1,000,000 lines of code", 36},
	{"100,001 to 1,000,000 lines of code", 36},
	{"100 to 1,000 lines of code", 8},
	{"<100 lines of code", 2},
	{"No Report", 3},
}

// Figure11InvolvedExtent: floating point extent in the involved
// codebase.
var Figure11InvolvedExtent = []CountEntry{
	{"FP incidental", 71},
	{"FP intrinsic", 55},
	{"FP intrinsic, I did numerical correctness", 23},
	{"FP intrinsic, other team did numerical correctness", 17},
	{"No FP involved", 15},
	{"FP intrinsic, my team did numeric correctness", 13},
	{"No Report", 5},
}

// QuizAverages is the Figure 12 table: expected per-participant counts.
type QuizAverages struct {
	Correct    float64
	Incorrect  float64
	DontKnow   float64
	NoAnswer   float64
	Chance     float64
	NQuestions int
}

// Figure12Core: average performance on the 15-question core quiz.
var Figure12Core = QuizAverages{
	Correct: 8.5, Incorrect: 4.0, DontKnow: 2.3, NoAnswer: 0.2,
	Chance: 7.5, NQuestions: 15,
}

// Figure12Opt: average performance on the optimization quiz (3 scored
// T/F questions; Standard-compliant Level is excluded from the chance
// computation as it is not T/F).
var Figure12Opt = QuizAverages{
	Correct: 0.6, Incorrect: 0.2, DontKnow: 2.2, NoAnswer: 0.1,
	Chance: 1.5, NQuestions: 4,
}

// QuestionBreakdown is one row of Figures 14/15: per-question response
// percentages.
type QuestionBreakdown struct {
	Label      string
	Correct    float64 // percent
	Incorrect  float64
	DontKnow   float64
	Unanswered float64
	// ChanceLevel marks questions the paper boldfaces as answered at
	// the level of chance; WrongMajority marks italicized questions
	// answered incorrectly (or unknown) more often than correctly.
	ChanceLevel   bool
	WrongMajority bool
}

// Figure14Core: per-question core quiz breakdown (exact values).
var Figure14Core = []QuestionBreakdown{
	{"Commutativity", 53.3, 27.6, 18.6, 0.5, true, false},
	{"Associativity", 69.3, 14.1, 15.6, 1.0, false, false},
	{"Distributivity", 81.9, 6.0, 10.6, 1.5, false, false},
	{"Ordering", 80.4, 6.0, 12.6, 1.0, false, false},
	{"Identity", 16.6, 76.9, 5.5, 1.0, false, true},
	{"Negative Zero", 58.8, 28.1, 11.6, 1.5, true, false},
	{"Square", 47.2, 35.2, 16.6, 1.0, true, false},
	{"Overflow", 60.8, 24.1, 11.1, 4.0, false, false},
	{"Divide By Zero", 11.6, 76.4, 11.1, 1.0, false, true},
	{"Zero Divide By Zero", 70.4, 9.0, 19.6, 1.0, false, false},
	{"Saturation Plus", 54.8, 26.1, 17.6, 1.5, true, false},
	{"Saturation Minus", 53.3, 25.6, 19.6, 1.5, true, false},
	{"Denormal Precision", 52.3, 24.6, 22.1, 1.0, true, false},
	{"Operation Precision", 73.4, 9.0, 16.6, 1.0, false, false},
	{"Exception Signal", 69.3, 10.1, 19.6, 1.0, false, false},
}

// Figure15Opt: per-question optimization quiz breakdown (exact values).
var Figure15Opt = []QuestionBreakdown{
	{"MADD", 15.6, 10.0, 72.4, 2.0, false, true},
	{"Flush to Zero", 13.6, 7.5, 76.9, 2.0, false, true},
	{"Standard-compliant Level", 8.5, 20.7, 68.8, 2.0, false, true},
	{"Fast-math", 29.1, 3.0, 65.8, 2.0, false, true},
}

// FactorEffect records the approximate mean core-quiz score for each
// level of a background factor (digitized from Figures 16-19; the text
// pins the extremes: baseline ~8.5, best factor levels ~11, worst near
// or below chance).
type FactorEffect struct {
	Factor string
	Means  []LevelMean
}

// LevelMean pairs a factor level with its mean correct count.
type LevelMean struct {
	Level string
	Mean  float64
}

// Figure16ContribSizeEffect: mean core score by contributed codebase
// size. Monotone increasing; >1M reaches ~11/15.
var Figure16ContribSizeEffect = FactorEffect{
	Factor: "Contributed Codebase Size",
	Means: []LevelMean{
		{"<100 lines of code", 7.0},
		{"100 to 1,000 lines of code", 7.4},
		{"1,001 to 10,000 lines of code", 8.0},
		{"10,001 to 100,000 lines of code", 9.0},
		{"100,001 to 1,000,000 lines of code", 10.0},
		{">1,000,000 lines of code", 11.0},
	},
}

// Figure17AreaEffect: mean core score by area. EE/CS/CE near 10-11;
// other physical science and other engineering at chance (~7.5).
var Figure17AreaEffect = FactorEffect{
	Factor: "Area",
	Means: []LevelMean{
		{"Electrical Engineering", 11.0},
		{"Computer Science", 10.0},
		{"Computer Engineering", 10.0},
		{"Mathematics", 9.0},
		{"Other Physical Science Field", 7.5},
		{"Other Engineering Field", 7.5},
		{"Other", 7.8},
	},
}

// Figure18RoleEffect: mean core score by software development role.
var Figure18RoleEffect = FactorEffect{
	Factor: "Software Development Role",
	Means: []LevelMean{
		{"My main role is as a software engineer", 9.6},
		{"My main role is to manage software engineers", 9.0},
		{"I manage others who develop software to support my main role", 8.4},
		{"I develop software to support my main role", 8.2},
	},
}

// Figure19TrainingEffect: mean core score by formal floating point
// training; the paper stresses the effect is small (max gain ~1/15).
var Figure19TrainingEffect = FactorEffect{
	Factor: "Formal Training",
	Means: []LevelMean{
		{"One or more courses", 9.4},
		{"One or more weeks within a course", 9.0},
		{"One or more lectures in course", 8.5},
		{"None", 7.9},
	},
}

// Figure20OptAreaEffect: mean optimization-quiz correct count by area
// (scored questions only; caps quickly at ~0.5 above the 0.6 baseline).
var Figure20OptAreaEffect = FactorEffect{
	Factor: "Area",
	Means: []LevelMean{
		{"Electrical Engineering", 1.1},
		{"Computer Science", 1.0},
		{"Computer Engineering", 1.0},
		{"Mathematics", 0.6},
		{"Other Physical Science Field", 0.35},
		{"Other Engineering Field", 0.35},
		{"Other", 0.4},
	},
}

// Figure21OptRoleEffect: mean optimization-quiz correct count by role.
var Figure21OptRoleEffect = FactorEffect{
	Factor: "Software Development Role",
	Means: []LevelMean{
		{"My main role is as a software engineer", 1.2},
		{"My main role is to manage software engineers", 0.9},
		{"I manage others who develop software to support my main role", 0.5},
		{"I develop software to support my main role", 0.45},
	},
}

// SuspicionDist is a Likert distribution for one condition: percent of
// the group reporting each level 1..5.
type SuspicionDist struct {
	Condition string
	Percent   [5]float64
}

// Figure22Main: suspicion distributions for the 199-participant main
// group (digitized; the text pins Invalid max-suspicion at ~2/3 and the
// ordering Invalid > Overflow > others).
var Figure22Main = []SuspicionDist{
	{"Overflow", [5]float64{5, 10, 20, 30, 35}},
	{"Underflow", [5]float64{20, 30, 25, 15, 10}},
	{"Precision", [5]float64{25, 30, 25, 12, 8}},
	{"Invalid", [5]float64{4, 6, 10, 15, 65}},
	{"Denorm", [5]float64{18, 27, 28, 17, 10}},
}

// Figure22Student: suspicion distributions for the 52-student group —
// similar to the main group but less suspicious of Underflow, Denorm,
// and Overflow (the topic was fresh from the course).
var Figure22Student = []SuspicionDist{
	{"Overflow", [5]float64{8, 15, 25, 27, 25}},
	{"Underflow", [5]float64{35, 30, 20, 10, 5}},
	{"Precision", [5]float64{25, 28, 25, 14, 8}},
	{"Invalid", [5]float64{5, 7, 10, 13, 65}},
	{"Denorm", [5]float64{30, 30, 22, 12, 6}},
}

// Percent returns 100*n/total for a table entry.
func Percent(e CountEntry, total int) float64 {
	return 100 * float64(e.N) / float64(total)
}
