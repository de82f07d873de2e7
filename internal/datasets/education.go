package datasets

import (
	"math"

	"smartfeat/internal/dataframe"
)

// Lawschool generates the law-school-admission-style dataset (Table 3: 5
// categorical, 7 numeric, 4,591 rows, Education). Like Bank, the original
// features are well-constructed: bar passage is (nearly) linear in LSAT and
// undergraduate GPA, so feature engineering has nothing to add — every
// method in the paper stays within half a point of the initial AUC here.
func Lawschool(seed int64) *Dataset {
	s := newSynth(seed)
	const n = 4591
	race := make([]uint32, n)
	gender := make([]uint32, n)
	fulltime := make([]uint32, n)
	famIncome := make([]uint32, n)
	tier := make([]uint32, n)
	lsat := make([]float64, n)
	ugpa := make([]float64, n)
	age := make([]float64, n)
	decile1 := make([]float64, n)
	decile3 := make([]float64, n)
	zfygpa := make([]float64, n)
	scores := make([]float64, n)
	tiers := []string{"tier1", "tier2", "tier3", "tier4", "tier5", "tier6"}
	incomes := []string{"low", "lower-middle", "middle", "upper-middle", "high"}
	races := []string{"White", "Black", "Hispanic", "Asian", "Other"}
	genders := []string{"M", "F"}
	yesNo := []string{"yes", "no"}
	for i := 0; i < n; i++ {
		race[i] = s.weightedChoice([]float64{12, 2, 1.5, 1.5, 1})
		gender[i] = s.choice(len(genders))
		fulltime[i] = s.weightedChoice([]float64{8, 1})
		famIncome[i] = s.choice(len(incomes))
		tier[i] = s.choice(len(tiers))
		ability := s.normal(0, 1)
		lsat[i] = math.Round(clip(36+4.4*ability+s.normal(0, 2.5), 11, 48))
		ugpa[i] = math.Round(clip(3.2+0.35*ability+s.normal(0, 0.25), 1.5, 4.0)*100) / 100
		age[i] = math.Round(clip(s.normal(24, 3.5), 20, 50))
		decile1[i] = math.Round(clip(5.5+2.2*ability+s.normal(0, 1.5), 1, 10))
		decile3[i] = math.Round(clip(5.5+2.2*ability+s.normal(0, 1.5), 1, 10))
		zfygpa[i] = math.Round(clip(0.6*ability+s.normal(0, 0.6), -3.5, 3.5)*100) / 100
		// Label: clean linear function of the raw academic indicators.
		z := 1.6*(lsat[i]-36)/4.4 + 1.0*(ugpa[i]-3.2)/0.35 + 0.4*zfygpa[i]
		if yesNo[fulltime[i]] == "yes" {
			z += 0.3
		}
		scores[i] = z + s.normal(0, 1.1)
	}
	labels := s.labelsFromScores(scores, 0.8, 0.03)
	f := dataframe.New()
	must(f.AddCodes("Race", races, race))
	must(f.AddCodes("Gender", genders, gender))
	must(f.AddCodes("Fulltime", yesNo, fulltime))
	must(f.AddCodes("FamIncome", incomes, famIncome))
	must(f.AddCodes("SchoolTier", tiers, tier))
	must(f.AddNumeric("LSAT", lsat))
	must(f.AddNumeric("UGPA", ugpa))
	must(f.AddNumeric("Age", age))
	must(f.AddNumeric("Decile1", decile1))
	must(f.AddNumeric("Decile3", decile3))
	must(f.AddNumeric("ZFYGPA", zfygpa))
	must(f.AddNumeric("PassBar", labels))
	return &Dataset{
		Name:              "Lawschool",
		Field:             "Education",
		Frame:             f,
		Target:            "PassBar",
		TargetDescription: "Whether the student passes the bar exam on the first attempt (1 = yes)",
		Descriptions: map[string]string{
			"Race":       "Race of the student",
			"Gender":     "Gender of the student",
			"Fulltime":   "Whether the student attends full time",
			"FamIncome":  "Family income bracket",
			"SchoolTier": "Tier of the law school attended",
			"LSAT":       "LSAT score of the student",
			"UGPA":       "Undergraduate grade point average",
			"Age":        "Age of the student in years",
			"Decile1":    "Law school grade decile in year 1 (1-10 rank)",
			"Decile3":    "Law school grade decile in year 3 (1-10 rank)",
			"ZFYGPA":     "Standardized first-year law school GPA (z-score)",
		},
	}
}
