package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"smartfeat/internal/baselines/featuretools"
	"smartfeat/internal/datasets"
)

// aucBits renders a cell's outcome exactly: each model's AUC as the hex of
// its float64 bits and each failed model with its reason, in model-name
// order, then the method error, if any.
func aucBits(res MethodResult) string {
	var parts []string
	for name, auc := range res.AUCs {
		parts = append(parts, fmt.Sprintf("%s=%016x", name, math.Float64bits(auc)))
	}
	for name, why := range res.FailedModels {
		parts = append(parts, fmt.Sprintf("%s!%s", name, why))
	}
	sort.Strings(parts)
	if res.Err != nil {
		parts = append(parts, "err="+res.Err.Error())
	}
	return strings.Join(parts, " ")
}

// TestComparisonGolden pins what evaluation and the Featuretools baseline
// hand back, bit for bit: the AUCs of all ten quick Bank and Heart
// comparison cells, and Featuretools' candidate count, kept count and kept
// names on every dataset. A change to how evaluation gathers, preprocesses
// or scores rows, or to how Featuretools filters its candidates, must leave
// every line as it is.
func TestComparisonGolden(t *testing.T) {
	cells := []struct{ dataset, method, want string }{
		{"Bank", "Initial AUC", "DNN=40560c36d283ae97 ET=40559bc0e5b59981 LR=40569a879c5e5a55 NB=405636c38190815b RF=4055fc619088be0b"},
		{"Bank", "SMARTFEAT", "DNN=4055f731a8fa7f04 ET=40560822000c18be LR=405684a48ac002c8 NB=4055b1bc4719abf2 RF=40561175153c3e5a"},
		{"Bank", "CAAFE", "DNN!timeout ET=40559bc0e5b59981 LR=40569a879c5e5a55 NB=40567b10196702d6 RF=4055e261bcf3393d"},
		{"Bank", "Featuretools", "DNN=40561bb448bc290b ET=40563030e207b91c LR=40568495ae4ebd5c NB=40563248bf93b21c RF=40563172c6fe2189"},
		{"Bank", "AutoFeat", "err=autofeat: computation budget exceeded (timeout): 10387 candidates × 41189 rows"},
		{"Heart", "Initial AUC", "DNN=4050a5c503692f67 ET=404feb78d3f49d74 LR=40511d7ed4762c93 NB=40507ed1c8e73200 RF=404ef8b9fd7c7cd9"},
		{"Heart", "SMARTFEAT", "DNN=4050d9bce8531962 ET=405038d0577fcbcd LR=40515646120a158b NB=40510dc22f97e786 RF=40500325760bea87"},
		{"Heart", "CAAFE", "DNN=4050eef6e478f38b ET=404f6619bc3d01c1 LR=40511d7ed4762c93 NB=40507ed1c8e73200 RF=405039991ad32a3f"},
		{"Heart", "Featuretools", "DNN=4050bf70a7bccb6a ET=404f822d0ce59d43 LR=405119f0b451917e NB=4050da78494b93aa RF=404eb4c287edd902"},
		{"Heart", "AutoFeat", "DNN=4050d4aaa3e2a593 ET=404f73d9c79d689d LR=4050b44dd21cf4b4 NB=404fcd5b87733f97 RF=404ff2f2c4ba10c3"},
	}
	cfg := QuickConfig()
	for _, c := range cells {
		res, err := RunCell(context.Background(), c.dataset, c.method, cfg)
		if err != nil {
			t.Fatalf("%s × %s: %v", c.dataset, c.method, err)
		}
		if got := aucBits(res); got != c.want {
			t.Errorf("%s × %s:\n got %s\nwant %s", c.dataset, c.method, got, c.want)
		}
	}

	ft := []struct {
		dataset             string
		generated, selected int
		columns             string
	}{
		{"Diabetes", 56, 26, "Pregnancies * SkinThickness|Pregnancies * Insulin|Pregnancies * DiabetesPedigree|Pregnancies * Age|Glucose + BloodPressure|Glucose + SkinThickness|Glucose * SkinThickness|Glucose * BMI|Glucose * DiabetesPedigree|Glucose + Age|Glucose * Age|BloodPressure + SkinThickness|BloodPressure + BMI|BloodPressure * BMI|BloodPressure + Age|BloodPressure * Age|SkinThickness * Insulin|SkinThickness + BMI|SkinThickness * DiabetesPedigree|SkinThickness + Age|SkinThickness * Age|Insulin * DiabetesPedigree|Insulin * Age|BMI * DiabetesPedigree|BMI + Age|DiabetesPedigree * Age"},
		{"Heart", 30, 16, "Age + CigsPerDay|Age * TotChol|Age + SysBP|Age * SysBP|Age + BMI|Age * BMI|Age + HeartRate|CigsPerDay + SysBP|CigsPerDay + BMI|CigsPerDay + HeartRate|TotChol + SysBP|TotChol * BMI|TotChol * HeartRate|SysBP * BMI|SysBP + HeartRate|BMI * HeartRate"},
		{"Bank", 72, 27, "Age * Duration|Age * Campaign|Age * Pdays|Age + ConsConfIdx|Age * ConsConfIdx|Age * Euribor3m|Duration * Campaign|Duration + Pdays|Duration * Pdays|Duration * Previous|Duration * EmpVarRate|Duration * Euribor3m|Campaign * Pdays|Campaign + Previous|Campaign * Previous|Campaign + EmpVarRate|Campaign * EmpVarRate|Campaign + ConsConfIdx|Campaign * Euribor3m|Pdays * Previous|Pdays * EmpVarRate|Pdays * Euribor3m|Previous + EmpVarRate|Previous * EmpVarRate|Previous + ConsPriceIdx|Previous * Euribor3m|EmpVarRate * Euribor3m"},
		{"Adult", 20, 8, "Age * Fnlwgt|Age * CapitalGain|Age * CapitalLoss|Age + HoursPerWeek|Fnlwgt * CapitalGain|Fnlwgt * CapitalLoss|Fnlwgt * HoursPerWeek|CapitalGain * CapitalLoss"},
		{"Housing", 42, 8, "HousingMedianAge * TotalRooms|HousingMedianAge * Population|HousingMedianAge * MedianIncome|TotalRooms * TotalBedrooms|TotalRooms * Population|TotalRooms * MedianIncome|Population * MedianIncome|MedianIncome + Latitude"},
		{"Lawschool", 30, 7, "LSAT * UGPA|LSAT + Age|UGPA * Age|Age + Decile1|Age + Decile3|Decile1 + Decile3|Decile1 * ZFYGPA"},
		{"West Nile Virus", 42, 11, "WeekOfYear + Temperature|WeekOfYear * Temperature|WeekOfYear + Humidity|WeekOfYear * Humidity|WeekOfYear + NumMosquitos|Latitude + Longitude|Latitude * Longitude|Temperature + Humidity|Temperature + NumMosquitos|Humidity + NumMosquitos|PrecipTotal * NumMosquitos"},
		{"Tennis", 110, 16, "FSP.1 + SSP.1|FSP.1 + ACES.1|FSP.1 + DBF.1|FSP.1 + BPC.1|FSP.1 + BPW.1|FSP.1 + NPW.1|FSW.1 * SSW.1|FSW.1 * DBF.1|FSW.1 * BPW.1|SSP.1 + ACES.1|SSP.1 + DBF.1|SSP.1 + BPC.1|SSP.1 + BPW.1|SSP.1 + NPA.1|DBF.1 * BPW.1|NPA.1 * NPW.1"},
	}
	if len(ft) != len(datasets.Names()) {
		t.Fatalf("%d Featuretools lines for %d datasets", len(ft), len(datasets.Names()))
	}
	for _, c := range ft {
		d, err := datasets.Load(c.dataset, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := featuretools.Run(d.Frame.DropNA(), d.Target, featuretools.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", c.dataset, err)
		}
		if res.Generated != c.generated || res.Selected != c.selected {
			t.Errorf("%s: generated %d, selected %d; want %d, %d", c.dataset, res.Generated, res.Selected, c.generated, c.selected)
		}
		if got := strings.Join(res.NewColumns, "|"); got != c.columns {
			t.Errorf("%s: new columns\n got %s\nwant %s", c.dataset, got, c.columns)
		}
	}
}
