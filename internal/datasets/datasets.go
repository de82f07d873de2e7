// Package datasets generates the eight evaluation datasets of the paper's
// Table 3 as seeded synthetic equivalents.
//
// The originals are Kaggle datasets we cannot redistribute or download in an
// offline build, so each generator reproduces the schema statistics of
// Table 3 (categorical/numeric attribute counts, row counts, field) with
// realistic column names and data-card descriptions, and — crucially — a
// label-generating process that places the class signal where the paper
// found it for that dataset:
//
//   - Diabetes: threshold effects (glucose/BMI bands) and a multiplicative
//     interaction; sensor zeros act as missing values.
//   - Heart: banded age/biometrics with a smoking interaction; weak signal.
//   - Bank: signal linear in the original features ("well-constructed", AFE
//     cannot help).
//   - Adult: signal in latent per-group effects only group-by statistics
//     expose (SMARTFEAT's largest win).
//   - Housing: signal in ratios (rooms per household, …) that
//     divide-capable methods find and add/multiply-only methods cannot.
//   - Lawschool: signal linear in LSAT/GPA ("well-constructed").
//   - West Nile Virus: signal in per-(species, trap) historical infection
//     rates — high-order group-by features dominate.
//   - Tennis: signal in composite indices and ratios of match statistics —
//     binary and extractor operators dominate (Table 7).
package datasets

import (
	"fmt"
	"sort"

	"smartfeat/internal/dataframe"
)

// Dataset bundles a generated frame with its data card, mirroring the three
// inputs SMARTFEAT takes (feature descriptions, prediction class, model).
type Dataset struct {
	// Name is the Table 3 dataset name.
	Name string
	// Field is the application domain from Table 3.
	Field string
	// Frame holds the generated data, label column included.
	Frame *dataframe.Frame
	// Target names the binary prediction class column.
	Target string
	// TargetDescription describes the prediction class for prompts.
	TargetDescription string
	// Descriptions is the data card: column name → description.
	Descriptions map[string]string
}

// Stats reports the Table 3 statistics of the dataset. Following the paper's
// table, the numeric count includes the (numeric, binary) prediction class.
func (d *Dataset) Stats() (numCat, numNum, rows int) {
	for _, name := range d.Frame.Names() {
		if d.Frame.Column(name).Kind == dataframe.Categorical {
			numCat++
		} else {
			numNum++
		}
	}
	return numCat, numNum, d.Frame.Len()
}

// WithoutDescriptions returns a copy whose data card carries only the raw
// feature names — the §4.2 "impact of feature descriptions" ablation input.
func (d *Dataset) WithoutDescriptions() *Dataset {
	c := *d
	c.Descriptions = make(map[string]string, len(d.Descriptions))
	for name := range d.Descriptions {
		c.Descriptions[name] = name // name-only: no semantic content
	}
	c.TargetDescription = d.Target
	return &c
}

// generator builds one dataset with the given seed.
type generator func(seed int64) *Dataset

var registry = map[string]generator{
	"Diabetes":        Diabetes,
	"Heart":           Heart,
	"Bank":            Bank,
	"Adult":           Adult,
	"Housing":         Housing,
	"Lawschool":       Lawschool,
	"West Nile Virus": WestNileVirus,
	"Tennis":          Tennis,
}

// Names returns the dataset names in the paper's Table 3 order.
func Names() []string {
	return []string{"Diabetes", "Heart", "Bank", "Adult", "Housing", "Lawschool", "West Nile Virus", "Tennis"}
}

// Load generates a dataset by name with the given seed.
func Load(name string, seed int64) (*Dataset, error) {
	gen, ok := registry[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return nil, fmt.Errorf("datasets: unknown dataset %q (known: %v)", name, known)
	}
	return gen(seed), nil
}

// TableStats mirrors one row of Table 3.
type TableStats struct {
	Name   string
	NumCat int
	NumNum int
	Rows   int
	Field  string
}

// Table3 regenerates the dataset-statistics table.
func Table3(seed int64) []TableStats {
	out := make([]TableStats, 0, len(registry))
	for _, name := range Names() {
		d, _ := Load(name, seed)
		c, n, r := d.Stats()
		out = append(out, TableStats{Name: name, NumCat: c, NumNum: n, Rows: r, Field: d.Field})
	}
	return out
}
