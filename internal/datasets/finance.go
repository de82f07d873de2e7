package datasets

import (
	"math"

	"smartfeat/internal/dataframe"
)

// Bank generates the bank-marketing-style dataset (Table 3: 8 categorical,
// 10 numeric, 41,189 rows, Finance). The paper observes that the original
// features here are already well-constructed: the label is (nearly) linear
// in the raw numeric attributes — call duration dominating, exactly as in
// the real dataset — so no feature-engineering method moves the AUC, and the
// dataset's size is what makes slow baselines (AutoFeat, CAAFE+DNN) time out.
func Bank(seed int64) *Dataset {
	s := newSynth(seed)
	const n = 41189
	job := make([]uint32, n)
	marital := make([]uint32, n)
	education := make([]uint32, n)
	creditDefault := make([]uint32, n)
	housing := make([]uint32, n)
	loan := make([]uint32, n)
	contact := make([]uint32, n)
	poutcome := make([]uint32, n)
	age := make([]float64, n)
	duration := make([]float64, n)
	campaign := make([]float64, n)
	pdays := make([]float64, n)
	previous := make([]float64, n)
	empVarRate := make([]float64, n)
	consPrice := make([]float64, n)
	consConf := make([]float64, n)
	euribor := make([]float64, n)
	scores := make([]float64, n)
	jobs := []string{"admin", "blue-collar", "technician", "services", "management", "retired", "entrepreneur", "self-employed", "housemaid", "unemployed", "student", "unknown"}
	maritals := []string{"married", "single", "divorced"}
	edus := []string{"basic.4y", "basic.6y", "basic.9y", "high.school", "professional.course", "university.degree", "unknown"}
	defaults := []string{"no", "unknown"}
	yesNo, noYes := []string{"yes", "no"}, []string{"no", "yes"}
	contacts := []string{"cellular", "telephone"}
	outcomes := []string{"nonexistent", "failure", "success"}
	for i := 0; i < n; i++ {
		job[i] = s.choice(len(jobs))
		marital[i] = s.weightedChoice([]float64{6, 3, 1})
		education[i] = s.choice(len(edus))
		creditDefault[i] = s.weightedChoice([]float64{4, 1})
		housing[i] = s.choice(len(yesNo))
		loan[i] = s.weightedChoice([]float64{5, 1})
		contact[i] = s.weightedChoice([]float64{2, 1})
		poutcome[i] = s.weightedChoice([]float64{8, 1.2, 0.8})
		age[i] = math.Round(clip(s.normal(40, 10), 17, 98))
		duration[i] = math.Round(clip(s.lognormal(5.3, 0.8), 0, 4918))
		campaign[i] = clip(s.poissonish(2.5), 1, 43)
		previous[i] = clip(s.poissonish(0.2), 0, 7)
		if previous[i] > 0 {
			pdays[i] = math.Round(s.uniform(1, 27))
		} else {
			pdays[i] = 999
		}
		// Macro indicators move together across "quarters".
		quarter := s.normal(0, 1)
		empVarRate[i] = math.Round(clip(quarter*1.5, -3.4, 1.4)*10) / 10
		consPrice[i] = math.Round((93.5+0.4*quarter+s.normal(0, 0.1))*1000) / 1000
		consConf[i] = math.Round((-40+4*quarter+s.normal(0, 1))*10) / 10
		euribor[i] = math.Round(clip(3.6+1.3*quarter+s.normal(0, 0.1), 0.6, 5.0)*1000) / 1000
		// Label: linear in the raw numerics — well-constructed features.
		z := 2.6*(math.Log1p(duration[i])-5.3)/0.8 - 0.9*(euribor[i]-3.6)/1.3 - 0.3*(campaign[i]-2.5)/1.6 + 0.6*previous[i]
		if outcomes[poutcome[i]] == "success" {
			z += 1.8
		}
		if contacts[contact[i]] == "cellular" {
			z += 0.35
		}
		scores[i] = z + s.normal(0, 0.75)
	}
	labels := s.labelsFromScores(scores, 0.11, 0.02)
	f := dataframe.New()
	must(f.AddCodes("Job", jobs, job))
	must(f.AddCodes("Marital", maritals, marital))
	must(f.AddCodes("Education", edus, education))
	must(f.AddCodes("CreditDefault", defaults, creditDefault))
	must(f.AddCodes("HousingLoan", yesNo, housing))
	must(f.AddCodes("PersonalLoan", noYes, loan))
	must(f.AddCodes("ContactType", contacts, contact))
	must(f.AddCodes("PrevOutcome", outcomes, poutcome))
	must(f.AddNumeric("Age", age))
	must(f.AddNumeric("Duration", duration))
	must(f.AddNumeric("Campaign", campaign))
	must(f.AddNumeric("Pdays", pdays))
	must(f.AddNumeric("Previous", previous))
	must(f.AddNumeric("EmpVarRate", empVarRate))
	must(f.AddNumeric("ConsPriceIdx", consPrice))
	must(f.AddNumeric("ConsConfIdx", consConf))
	must(f.AddNumeric("Euribor3m", euribor))
	must(f.AddNumeric("Subscribed", labels))
	return &Dataset{
		Name:              "Bank",
		Field:             "Finance",
		Frame:             f,
		Target:            "Subscribed",
		TargetDescription: "Whether the client subscribed to a term deposit after the campaign call (1 = yes)",
		Descriptions: map[string]string{
			"Job":           "Type of job of the client",
			"Marital":       "Marital status",
			"Education":     "Education level of the client",
			"CreditDefault": "Whether the client has credit in default",
			"HousingLoan":   "Whether the client has a housing loan",
			"PersonalLoan":  "Whether the client has a personal loan",
			"ContactType":   "Contact communication type (cellular or telephone)",
			"PrevOutcome":   "Outcome of the previous marketing campaign",
			"Age":           "Age of the client in years",
			"Duration":      "Duration of the last contact call in seconds",
			"Campaign":      "Number of contacts performed during this campaign",
			"Pdays":         "Days since the client was last contacted in a previous campaign (999 = never)",
			"Previous":      "Number of contacts performed before this campaign",
			"EmpVarRate":    "Employment variation rate (quarterly macro indicator)",
			"ConsPriceIdx":  "Consumer price index (monthly macro indicator)",
			"ConsConfIdx":   "Consumer confidence index (monthly macro indicator)",
			"Euribor3m":     "Euribor 3 month rate",
		},
	}
}
