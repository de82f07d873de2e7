package datasets

import (
	"fmt"
	"math"

	"smartfeat/internal/dataframe"
)

// WestNileVirus generates the West-Nile-virus-surveillance-style dataset
// (Table 3: 3 categorical, 8 numeric, 10,507 rows, Disease). The dominant
// signal is a latent per-(Species, Trap) infection propensity — exactly the
// structure the paper says makes high-order (GroupbyThenAgg) features the
// most beneficial on this dataset — plus a mid-summer seasonality band that
// bucketizing the week number exposes.
func WestNileVirus(seed int64) *Dataset {
	s := newSynth(seed)
	const n = 10507
	species := make([]uint32, n)
	trap := make([]uint32, n)
	area := make([]uint32, n)
	week := make([]float64, n)
	latitude := make([]float64, n)
	longitude := make([]float64, n)
	temperature := make([]float64, n)
	humidity := make([]float64, n)
	precip := make([]float64, n)
	mosquitos := make([]float64, n)
	scores := make([]float64, n)
	speciesList := []string{"CULEX PIPIENS", "CULEX RESTUANS", "CULEX PIPIENS/RESTUANS", "CULEX TERRITANS", "CULEX SALINARIUS", "CULEX TARSALIS"}
	speciesEffect := []float64{1.0, 0.2, 0.7, -1.0, -0.8, -0.6} // by species code
	traps := make([]string, 40)
	for i := range traps {
		traps[i] = fmt.Sprintf("T%03d", i+1)
	}
	trapEffect := s.groupEffects(traps, 0.9)
	areas := []string{"North", "South", "West", "Loop", "OHare", "Lakeview", "Austin", "Pullman", "Hegewisch", "Uptown"}
	for i := 0; i < n; i++ {
		species[i] = s.weightedChoice([]float64{4, 3, 3, 0.6, 0.5, 0.3})
		trap[i] = s.choice(len(traps))
		area[i] = s.choice(len(areas))
		week[i] = math.Round(clip(s.normal(30, 5), 22, 40))
		latitude[i] = math.Round(s.uniform(41.64, 42.02)*10000) / 10000
		longitude[i] = math.Round(s.uniform(-87.93, -87.53)*10000) / 10000
		temperature[i] = math.Round(clip(s.normal(73, 7)+0.8*(week[i]-30)/5, 50, 95))
		humidity[i] = math.Round(clip(s.normal(62, 12), 20, 100))
		precip[i] = math.Round(clip(s.lognormal(-2.0, 1.2), 0, 4)*100) / 100
		seasonal := 0.0
		if week[i] >= 28 && week[i] <= 35 {
			seasonal = 1.0 // peak transmission band, a bucketize target
		}
		g := trapEffect[trap[i]] + speciesEffect[species[i]]
		// Mosquito counts are a noisy per-row proxy of trap/species risk:
		// group means denoise them into the strongest feature.
		mosquitos[i] = clip(s.poissonish(8*math.Exp(0.55*g+0.4*seasonal)), 1, 500)
		z := 1.5*g + 1.0*seasonal + 0.45*(temperature[i]-73)/7 + 0.25*math.Log1p(mosquitos[i])
		scores[i] = z + s.normal(0, 1.3)
	}
	labels := s.labelsFromScores(scores, 0.09, 0.03)
	f := dataframe.New()
	must(f.AddCodes("Species", speciesList, species))
	must(f.AddCodes("Trap", traps, trap))
	must(f.AddCodes("AreaName", areas, area))
	must(f.AddNumeric("WeekOfYear", week))
	must(f.AddNumeric("Latitude", latitude))
	must(f.AddNumeric("Longitude", longitude))
	must(f.AddNumeric("Temperature", temperature))
	must(f.AddNumeric("Humidity", humidity))
	must(f.AddNumeric("PrecipTotal", precip))
	must(f.AddNumeric("NumMosquitos", mosquitos))
	must(f.AddNumeric("WnvPresent", labels))
	return &Dataset{
		Name:              "West Nile Virus",
		Field:             "Disease",
		Frame:             f,
		Target:            "WnvPresent",
		TargetDescription: "Whether West Nile virus is present in the trap's mosquito pool (1 = present)",
		Descriptions: map[string]string{
			"Species":      "Mosquito species collected in the trap",
			"Trap":         "Identifier of the surveillance trap location",
			"AreaName":     "Name of the city area where the trap is located",
			"WeekOfYear":   "Week of the year of the collection (22-40); mosquito activity is seasonal",
			"Latitude":     "Latitude of the trap",
			"Longitude":    "Longitude of the trap",
			"Temperature":  "Average temperature on the collection day (Fahrenheit)",
			"Humidity":     "Average relative humidity on the collection day (percent)",
			"PrecipTotal":  "Total precipitation on the collection day (inches)",
			"NumMosquitos": "Number of mosquitos caught in the trap pool",
		},
	}
}
