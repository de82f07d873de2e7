package fm

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

func col(name, desc string, numeric bool, card int, min, max float64) AgendaColumn {
	return AgendaColumn{Name: name, Description: desc, Numeric: numeric, Cardinality: card, Min: min, Max: max}
}

func TestContainsWordBoundaries(t *testing.T) {
	cases := []struct {
		text, kw string
		want     bool
	}{
		{"first serve percentage", "age", false}, // inside "percentage"
		{"age of the policyholder", "age", true},
		{"plasma concentration", "ratio", false}, // inside "concentration"
		{"win ratio per set", "ratio", true},
		{"aces.1: number of aces", "aces", true}, // dot boundary
		{"# of visits", "# of", true},
		{"", "age", false},
		{"age", "age", true},
	}
	for _, c := range cases {
		if got := containsWord(c.text, c.kw); got != c.want {
			t.Errorf("containsWord(%q, %q) = %v, want %v", c.text, c.kw, got, c.want)
		}
	}
}

func TestIsDerivedMarkers(t *testing.T) {
	derived := []AgendaColumn{
		col("B", "Bucketization of Age into bands", true, 4, 0, 3),
		col("G", "df.groupby(Make)[Claim].transform(mean)", true, 6, 0, 1),
		col("D", "One-hot indicator columns for City (component City=SF)", true, 2, 0, 1),
		col("X", "Subtract of A and B (A - B)", true, 100, -5, 5),
		col("C", "Composite index computed as a weighted combination of A, B", true, 100, 0, 10),
	}
	for _, c := range derived {
		if !isDerived(c) {
			t.Errorf("%s should be derived: %q", c.Name, c.Description)
		}
	}
	raw := col("Age", "Age of the policyholder in years", true, 50, 18, 80)
	if isDerived(raw) {
		t.Error("raw column misclassified as derived")
	}
	if !isBucketLike(derived[0]) {
		t.Error("bucketization should be bucket-like")
	}
	if isBucketLike(derived[1]) {
		t.Error("groupby is not bucket-like")
	}
}

func TestPairScoreSemantics(t *testing.T) {
	score := func(a, b AgendaColumn, op string) float64 {
		return pairScore(a, b, InferRole(a), InferRole(b), op)
	}
	bpw := col("BPW.1", "Number of break points won by player 1", true, 20, 1, 40)
	bpc := col("BPC.1", "Number of break points created by player 1", true, 20, 1, 40)
	ssw := col("SSW.1", "Number of second-serve points won by player 1", true, 50, 1, 150)
	misc := col("Misc", "Unremarkable quantity", true, 100, 0, 10)

	conversion := score(bpw, bpc, "divide")
	crossOutcome := score(bpw, ssw, "divide")
	if conversion <= crossOutcome {
		t.Fatalf("won/created conversion (%v) must outweigh won/won pairing (%v)", conversion, crossOutcome)
	}
	generic := score(misc, misc, "divide")
	if conversion <= generic {
		t.Fatal("semantic pairs must outweigh generic ones")
	}

	// Derived columns are heavily discounted; two derived → zero.
	bucket := col("Bucketize_Age", "Bucketization of Age into bands", true, 4, 0, 3)
	if got := score(bucket, bucket, "divide"); got != 0 {
		t.Fatalf("derived×derived should be 0, got %v", got)
	}
	if score(bucket, misc, "divide") >= generic {
		t.Fatal("derived pairs must be discounted")
	}

	// Coordinates are not quantities.
	lat := col("Latitude", "Latitude of the trap", true, 500, 41, 42)
	if score(lat, misc, "add") >= score(misc, misc, "add") {
		t.Fatal("geo arithmetic must be discounted")
	}

	// Products of totals are demoted; expected-count products favoured.
	rooms := col("TotalRooms", "Total number of rooms in the district", true, 500, 50, 5000)
	households := col("Households", "Total number of households in the district", true, 500, 50, 3000)
	rate := col("Rate", "Conversion rate of visits", true, 100, 0, 1)
	if score(rooms, households, "multiply") >= score(rate, rooms, "multiply") {
		t.Fatal("count×count product must rank below rate×count")
	}
	if score(rooms, households, "divide") <= score(rooms, households, "multiply") {
		t.Fatal("ratio of totals must rank above their product")
	}
}

func TestGroupbyAndAggWeights(t *testing.T) {
	trap := col("Trap", "Identifier of the surveillance trap location", false, 40, 0, 0)
	if groupbyWeight(trap) < 6 {
		t.Fatalf("a 40-level categorical is a prime group-by key: %v", groupbyWeight(trap))
	}
	id := col("row_id", "Row identifier", true, 10000, 1, 10000)
	if groupbyWeight(id) != 0 {
		t.Fatal("ids must not be group-by keys")
	}
	bucket := col("B", "Bucketization of Age into bands", true, 4, 0, 3)
	if groupbyWeight(bucket) == 0 {
		t.Fatal("bucketized features are valid group-by keys")
	}
	groupby := col("G", "df.groupby(Make)[Claim].transform(mean)", true, 6, 0, 1)
	if groupbyWeight(groupby) != 0 {
		t.Fatal("group-by outputs must not be group-by keys")
	}
	mosquitos := col("NumMosquitos", "Number of mosquitos caught in the trap pool", true, 100, 1, 500)
	lat := col("Latitude", "Latitude of the trap", true, 500, 41, 42)
	if aggWeight(mosquitos, "y") <= aggWeight(lat, "y") {
		t.Fatal("counts must outrank coordinates as aggregation targets")
	}
	if aggWeight(groupby, "y") != 0 {
		t.Fatal("derived columns must not be aggregated")
	}
}

func TestWeightedPickDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := [3]int{}
	for i := 0; i < 3000; i++ {
		counts[weightedPick(rng, []float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Fatalf("weighted pick distribution wrong: %v", counts)
	}
	// Degenerate weights fall back to uniform.
	if i := weightedPick(rng, []float64{0, 0}); i < 0 || i > 1 {
		t.Fatalf("degenerate pick out of range: %d", i)
	}
}

func TestParseRelativeGroups(t *testing.T) {
	num, den, ok := parseRelativeGroups("Performance efficiency index: (FSW.1 + SSW.1) relative to (UFE.1 + DBF.1)")
	if !ok || len(num) != 2 || len(den) != 2 || num[0] != "FSW.1" || den[1] != "DBF.1" {
		t.Fatalf("parse failed: %v %v %v", num, den, ok)
	}
	if _, _, ok := parseRelativeGroups("no groups here"); ok {
		t.Fatal("missing marker should not parse")
	}
	if _, _, ok := parseRelativeGroups("(A) unrelated text"); ok {
		t.Fatal("missing 'relative to' should not parse")
	}
}

func TestSharedEntityTokens(t *testing.T) {
	a := col("BPW.1", "Number of break points won by player 1", true, 10, 0, 10)
	b := col("BPC.1", "Number of break points created by player 1", true, 10, 0, 10)
	c := col("Humidity", "Average relative humidity on the collection day", true, 10, 0, 100)
	if sharedEntityTokens(a, b) < 2 {
		t.Fatal("break/points should be shared")
	}
	if sharedEntityTokens(a, c) != 0 {
		t.Fatal("unrelated columns should share nothing")
	}
}

func TestProposeUnaryBinaryCategoricalDeclined(t *testing.T) {
	sex := col("Sex", "Sex of the patient (M/F)", false, 2, 0, 0)
	if props := proposeUnary(sex, "y"); len(props) != 0 {
		t.Fatalf("binary categorical should yield no proposals: %+v", props)
	}
	seasonal := col("WeekOfYear", "Week of the year of the collection; activity is seasonal", true, 19, 22, 40)
	props := proposeUnary(seasonal, "y")
	found := false
	for _, p := range props {
		if p.Op == "bucketize" && p.Confidence == "high" {
			found = true
		}
	}
	if !found {
		t.Fatalf("seasonal column should band with high confidence: %+v", props)
	}
}

func TestHallucinatedValueDeterministic(t *testing.T) {
	a := hallucinatedValue("Gotham", 0, 100)
	b := hallucinatedValue("Gotham", 0, 100)
	if a != b {
		t.Fatal("hallucinations must be deterministic")
	}
	if a < 0 || a > 100 {
		t.Fatalf("out of range: %v", a)
	}
	if hallucinatedValue("Metropolis", 0, 100) == a {
		t.Fatal("different entities should (almost surely) differ")
	}
}

func TestDensityMappingDeterministic(t *testing.T) {
	m1 := densityMapping([]string{"SF", "LA", "Gotham"})
	m2 := densityMapping([]string{"Gotham", "SF", "LA"})
	if len(m1) != 3 || m1["SF"] != 18838 {
		t.Fatalf("mapping wrong: %v", m1)
	}
	for k, v := range m1 {
		if m2[k] != v {
			t.Fatal("mapping must be order-independent")
		}
	}
}

// TestSampleBinaryResponsesPinned pins the simulator's binary samples for a
// fixed seed over a fixed agenda that covers every pairScore branch: counts,
// money, rates, measurements, scores, durations, years, coordinates, an id,
// a binary flag and derived features. Replay recordings of sampled prompts
// depend on this exact sequence.
func TestSampleBinaryResponsesPinned(t *testing.T) {
	const want = "40f38cda6b5bd977bf36acb9aa58d13336770963e3af3394f22faf174d5dbc4a"
	agenda := []AgendaColumn{
		col("BPW.1", "Number of break points won by player 1", true, 20, 1, 40),
		col("BPC.1", "Number of break points created by player 1", true, 20, 1, 40),
		col("UFE.1", "Unforced errors committed by player 1", true, 30, 0, 60),
		col("Balance", "Average yearly account balance", true, 900, -800, 90000),
		col("Campaign", "Number of contacts during this campaign", true, 40, 1, 60),
		col("Duration", "Duration of the last contact in seconds", true, 1500, 0, 4900),
		col("EmpVarRate", "Employment variation rate", true, 10, -3.4, 1.4),
		col("Glucose", "Plasma glucose concentration", true, 130, 0, 199),
		col("BMI", "Body mass index", true, 240, 0, 67),
		col("LSAT", "LSAT score of the applicant", true, 40, 120, 180),
		col("GPA", "Undergraduate GPA score", true, 200, 1, 4),
		col("YearBuilt", "Calendar year the house was built", true, 100, 1900, 2010),
		col("Latitude", "Latitude of the trap", true, 500, 41, 42),
		col("row_id", "Row identifier", true, 1000, 1, 1000),
		col("Smoker", "Whether the patient smokes", true, 2, 0, 1),
		col("Bucketize_Age", "Bucketization of Age into bands", true, 4, 0, 3),
		col("Balance_divide_Campaign", "Divide of Balance and Campaign (Balance / Campaign)", true, 800, 0, 9000),
		{Name: "Job", Description: "Type of job", Cardinality: 12, Levels: []string{"admin.", "technician"}},
		col("y", "Whether the client subscribed", true, 2, 0, 1),
	}
	var prompt strings.Builder
	prompt.WriteString("Task: " + TaskSampleBinary + "\nDataset description:\n")
	for _, c := range agenda {
		prompt.WriteString(FormatAgendaColumn(c) + "\n")
	}
	prompt.WriteString("Prediction class: y\nDownstream model: RF\n")

	m := NewGPT4Sim(7, 0)
	h := sha256.New()
	for i := 0; i < 40; i++ {
		resp, err := m.Complete(ctx, prompt.String())
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(resp + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("40 binary samples hash to %s, want %s", got, want)
	}
}
