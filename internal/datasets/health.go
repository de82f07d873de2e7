package datasets

import (
	"math"

	"smartfeat/internal/dataframe"
)

// Diabetes generates the Pima-style diabetes dataset (Table 3: 0 categorical,
// 9 numeric, 769 rows, Health). The class signal sits in clinical threshold
// bands (glucose ≥ 126, BMI bands, age bands) and a glucose×BMI interaction,
// so bucketization and multiplication recover signal a linear model on raw
// values cannot. SkinThickness and Insulin contain sensor zeros, the quirk
// that makes unguarded divide-by-zero transformations (CAAFE's failure mode
// on this dataset) produce infinities.
func Diabetes(seed int64) *Dataset {
	s := newSynth(seed)
	const n = 769
	preg := make([]float64, n)
	glucose := make([]float64, n)
	bp := make([]float64, n)
	skin := make([]float64, n)
	insulin := make([]float64, n)
	bmi := make([]float64, n)
	pedigree := make([]float64, n)
	age := make([]float64, n)
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		age[i] = math.Round(clip(s.lognormal(3.4, 0.35), 21, 81))
		preg[i] = s.poissonish(clip((age[i]-20)/8, 0, 8))
		glucose[i] = math.Round(clip(s.normal(120, 30), 44, 199))
		bp[i] = math.Round(clip(s.normal(72, 12), 24, 122))
		bmi[i] = math.Round(clip(s.normal(32, 7), 18, 67)*10) / 10
		pedigree[i] = math.Round(clip(s.lognormal(-0.9, 0.6), 0.08, 2.4)*1000) / 1000
		// Sensor dropouts recorded as zeros (the real dataset's quirk).
		if s.rng.Float64() < 0.22 {
			skin[i] = 0
		} else {
			skin[i] = math.Round(clip(s.normal(29, 9), 7, 99))
		}
		if s.rng.Float64() < 0.35 {
			insulin[i] = 0
		} else {
			insulin[i] = math.Round(clip(s.lognormal(4.8, 0.6), 15, 846))
		}
		z := 0.0
		// Clinical thresholds: the bucketized signal.
		if glucose[i] >= 126 {
			z += 1.7
		} else if glucose[i] >= 100 {
			z += 0.7
		}
		if bmi[i] >= 30 {
			z += 0.9
		} else if bmi[i] >= 25 {
			z += 0.35
		}
		if age[i] >= 50 {
			z += 0.7
		} else if age[i] >= 35 {
			z += 0.3
		}
		// Multiplicative interaction a binary operator exposes.
		z += 1.0 * (glucose[i] / 140) * (bmi[i] / 35)
		// Insulin-resistance proxy: the glucose/insulin ratio carries signal
		// where insulin was measured. A divide operator recovers it — and an
		// unguarded divide (CAAFE's codegen) meets the sensor zeros.
		if insulin[i] > 0 {
			z += 1.0 * clip((math.Log(glucose[i]/insulin[i])+0.1)/0.6, -1.5, 1.5)
		}
		// Mild linear leakage keeps the initial AUC respectable.
		z += 0.35*(glucose[i]-120)/30 + 0.4*pedigree[i] + 0.15*preg[i]/4
		scores[i] = z + s.normal(0, 0.9)
	}
	labels := s.labelsFromScores(scores, 0.35, 0.04)
	f := dataframe.New()
	must(f.AddNumeric("Pregnancies", preg))
	must(f.AddNumeric("Glucose", glucose))
	must(f.AddNumeric("BloodPressure", bp))
	must(f.AddNumeric("SkinThickness", skin))
	must(f.AddNumeric("Insulin", insulin))
	must(f.AddNumeric("BMI", bmi))
	must(f.AddNumeric("DiabetesPedigree", pedigree))
	must(f.AddNumeric("Age", age))
	must(f.AddNumeric("Outcome", labels))
	return &Dataset{
		Name:              "Diabetes",
		Field:             "Health",
		Frame:             f,
		Target:            "Outcome",
		TargetDescription: "Whether the patient is diagnosed with diabetes (1) or not (0)",
		Descriptions: map[string]string{
			"Pregnancies":      "Number of times pregnant",
			"Glucose":          "Plasma glucose concentration from an oral glucose tolerance test",
			"BloodPressure":    "Diastolic blood pressure (mm Hg); zero indicates a missing measurement",
			"SkinThickness":    "Triceps skin fold thickness (mm); zero indicates a missing measurement",
			"Insulin":          "Two-hour serum insulin (mu U/ml); zero indicates a missing measurement",
			"BMI":              "Body mass index (weight in kg / height in m squared)",
			"DiabetesPedigree": "Diabetes pedigree function summarising family history",
			"Age":              "Age of the patient in years",
		},
	}
}

// Heart generates the Framingham-style heart dataset (Table 3: 7
// categorical, 7 numeric, 3657 rows, Health). Signal: banded age and blood
// pressure, a smoker×cigarettes interaction, and a cholesterol ratio — all
// weak, reproducing the paper's low initial AUC (≈0.67) and modest AFE gains.
func Heart(seed int64) *Dataset {
	s := newSynth(seed)
	const n = 3657
	sex := make([]uint32, n)
	education := make([]uint32, n)
	smoker := make([]uint32, n)
	bpMeds := make([]uint32, n)
	stroke := make([]uint32, n)
	hyp := make([]uint32, n)
	diabetic := make([]uint32, n)
	age := make([]float64, n)
	cigs := make([]float64, n)
	chol := make([]float64, n)
	sysBP := make([]float64, n)
	bmi := make([]float64, n)
	heartRate := make([]float64, n)
	scores := make([]float64, n)
	sexes := []string{"M", "F"}
	eduLevels := []string{"some_highschool", "highschool", "some_college", "college"}
	noYes := []string{"no", "yes"}
	const no, yes = 0, 1 // codes into noYes
	for i := 0; i < n; i++ {
		sex[i] = s.choice(len(sexes))
		education[i] = s.weightedChoice([]float64{4, 3, 2, 1})
		age[i] = math.Round(clip(s.normal(50, 9), 32, 70))
		isSmoker := s.rng.Float64() < 0.49
		if isSmoker {
			smoker[i] = yes
			cigs[i] = clip(s.poissonish(18), 1, 70)
		} else {
			smoker[i] = no
			cigs[i] = 0
		}
		hasHyp := s.rng.Float64() < 0.31
		if hasHyp {
			hyp[i] = yes
			sysBP[i] = math.Round(clip(s.normal(148, 16), 120, 295))
		} else {
			hyp[i] = no
			sysBP[i] = math.Round(clip(s.normal(125, 12), 83, 180))
		}
		bpMeds[i] = no
		if hasHyp && s.rng.Float64() < 0.2 {
			bpMeds[i] = yes
		}
		stroke[i] = no
		if s.rng.Float64() < 0.006 {
			stroke[i] = yes
		}
		diabetic[i] = no
		if s.rng.Float64() < 0.026 {
			diabetic[i] = yes
		}
		chol[i] = math.Round(clip(s.normal(237, 44), 107, 600))
		bmi[i] = math.Round(clip(s.normal(25.8, 4), 15, 57)*100) / 100
		heartRate[i] = math.Round(clip(s.normal(76, 12), 44, 143))
		z := 0.0
		if age[i] >= 50 {
			z += 1.0
		} else if age[i] >= 35 {
			z += 0.4
		}
		if sysBP[i] >= 140 {
			z += 0.7
		}
		// Smoking dose interaction: only heavy smokers are at risk.
		if isSmoker {
			z += 0.6 * cigs[i] / 20
		}
		z += 0.4 * (chol[i] - 237) / 44 * (bmi[i] / 26)
		if sexes[sex[i]] == "M" {
			z += 0.25
		}
		if diabetic[i] == yes {
			z += 0.8
		}
		if stroke[i] == yes {
			z += 0.8
		}
		scores[i] = z + s.normal(0, 1.35) // heavy noise: weak signal overall
	}
	labels := s.labelsFromScores(scores, 0.15, 0.05)
	f := dataframe.New()
	must(f.AddCodes("Sex", sexes, sex))
	must(f.AddCodes("Education", eduLevels, education))
	must(f.AddCodes("CurrentSmoker", noYes, smoker))
	must(f.AddCodes("BPMeds", noYes, bpMeds))
	must(f.AddCodes("PrevalentStroke", noYes, stroke))
	must(f.AddCodes("PrevalentHyp", noYes, hyp))
	must(f.AddCodes("DiabetesDiag", noYes, diabetic))
	must(f.AddNumeric("Age", age))
	must(f.AddNumeric("CigsPerDay", cigs))
	must(f.AddNumeric("TotChol", chol))
	must(f.AddNumeric("SysBP", sysBP))
	must(f.AddNumeric("BMI", bmi))
	must(f.AddNumeric("HeartRate", heartRate))
	must(f.AddNumeric("TenYearCHD", labels))
	return &Dataset{
		Name:              "Heart",
		Field:             "Health",
		Frame:             f,
		Target:            "TenYearCHD",
		TargetDescription: "Ten-year risk of coronary heart disease (1 = develops CHD)",
		Descriptions: map[string]string{
			"Sex":             "Sex of the patient (M/F)",
			"Education":       "Highest education level attained",
			"CurrentSmoker":   "Whether the patient currently smokes",
			"BPMeds":          "Whether the patient is on blood pressure medication",
			"PrevalentStroke": "Whether the patient previously had a stroke",
			"PrevalentHyp":    "Whether the patient is hypertensive",
			"DiabetesDiag":    "Whether the patient is diagnosed diabetic",
			"Age":             "Age of the patient in years",
			"CigsPerDay":      "Number of cigarettes smoked per day",
			"TotChol":         "Total cholesterol level (mg/dL)",
			"SysBP":           "Systolic blood pressure (mm Hg)",
			"BMI":             "Body mass index",
			"HeartRate":       "Resting heart rate (beats per minute)",
		},
	}
}

// clip bounds v to [lo, hi].
func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// must panics on construction errors in generators — lengths and names are
// fixed by construction, so any error is a programming bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
