package grid

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"smartfeat/internal/datasets"
	"smartfeat/internal/experiments"
	"smartfeat/internal/ml"
)

// Spec is one job: which of the paper's tables and figures to regenerate,
// over which datasets, methods and models, under which configuration scale.
// It is the one job type of every entry point: cmd/experiments parses its
// flags into it (Register), smartfeatd decodes submit bodies into it (the
// JSON tags are the wire format), and loadsim's -spec values are Specs.
// All of them check it with Validate, so a selection one accepts the
// others accept too.
type Spec struct {
	Table        int      `json:"table,omitempty"`        // 3, 4, 5, 6 or 7; 0 = none
	Figure       int      `json:"figure,omitempty"`       // 1, or 2 (the walkthrough, run beside the grid); 0 = none
	Efficiency   bool     `json:"efficiency,omitempty"`   // the per-method timing/traffic table
	Descriptions bool     `json:"descriptions,omitempty"` // the §4.2 feature-description ablation
	All          bool     `json:"all,omitempty"`          // every table and figure
	Quick        bool     `json:"quick,omitempty"`        // experiments.QuickConfig instead of DefaultConfig
	Seed         int64    `json:"seed,omitempty"`         // 0 = the configuration's seed
	Datasets     []string `json:"datasets,omitempty"`     // nil = all eight; the order orders table columns
	Methods      []string `json:"methods,omitempty"`      // nil = all; "Initial AUC" is always included
	Models       []string `json:"models,omitempty"`       // nil = the paper's five; no CLI flag
	Workers      int      `json:"workers,omitempty"`      // cell parallelism: 0 = GOMAXPROCS, 1 = sequential
}

// Selection maps the spec onto the plan/fold seam.
func (s Spec) Selection() Selection {
	return Selection{
		Table:        s.Table,
		Figure:       s.Figure,
		Efficiency:   s.Efficiency,
		Descriptions: s.Descriptions,
		All:          s.All,
	}
}

// Validate rejects a spec that selects nothing, names a table or figure the
// paper does not have, or lists an unknown or repeated dataset, method or
// model. Its messages are meant for a person: the CLI prints them as usage
// errors and the daemon returns them in 400 bodies.
func (s Spec) Validate() error {
	switch s.Table {
	case 0, 3, 4, 5, 6, 7:
	default:
		return fmt.Errorf("table %d does not exist (want 3, 4, 5, 6 or 7)", s.Table)
	}
	switch s.Figure {
	case 0, 1, 2:
	default:
		return fmt.Errorf("figure %d does not exist (want 1 or 2)", s.Figure)
	}
	if !s.Selection().Any() {
		return fmt.Errorf("empty selection: set table, figure, efficiency, descriptions or all")
	}
	if err := checkNames("dataset", s.Datasets, datasets.Names()); err != nil {
		return err
	}
	if err := checkNames("model", s.Models, ml.ModelNames); err != nil {
		return err
	}
	return checkNames("method", s.Methods, append([]string{experiments.MethodInitial}, experiments.Methods()...))
}

// checkNames rejects a name outside known, and a name listed twice: a
// repeated dataset or method would plan the same cell twice, which the grid
// runner refuses only after cells have started.
func checkNames(kind string, names, known []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !slices.Contains(known, n) {
			return fmt.Errorf("unknown %s %q (want one of %s)", kind, n, strings.Join(known, ", "))
		}
		if seen[n] {
			return fmt.Errorf("%s %q is listed twice", kind, n)
		}
		seen[n] = true
	}
	return nil
}

// Canonical returns the spec's one form among the specs that plan the same
// job: empty lists become nil, and a method restriction gains exactly one
// leading "Initial AUC". Dataset order is kept, because it orders the
// rendered table columns.
func (s Spec) Canonical() Spec {
	if len(s.Datasets) == 0 {
		s.Datasets = nil
	}
	if len(s.Models) == 0 {
		s.Models = nil
	}
	s.Methods = s.methodNames()
	return s
}

// DatasetNames resolves the comparison dataset scope.
func (s Spec) DatasetNames() []string {
	if len(s.Datasets) == 0 {
		return datasets.Names()
	}
	return s.Datasets
}

// methodNames resolves the comparison method restriction: nil stays nil
// (all methods), a non-empty list always gains "Initial AUC" up front.
func (s Spec) methodNames() []string {
	if len(s.Methods) == 0 {
		return nil
	}
	methods := []string{experiments.MethodInitial}
	for _, m := range s.Methods {
		if m != experiments.MethodInitial {
			methods = append(methods, m)
		}
	}
	return methods
}

// Plan expands the spec into its grid cells, in table order.
func (s Spec) Plan() []Cell {
	return s.Selection().Plan(s.DatasetNames(), s.methodNames())
}

// Config builds the job's evaluation configuration: the default or quick
// scale, with the seed, models and worker bound the spec overrides.
func (s Spec) Config() experiments.Config {
	cfg := experiments.DefaultConfig()
	if s.Quick {
		cfg = experiments.QuickConfig()
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if len(s.Models) > 0 {
		cfg.Models = append([]string(nil), s.Models...)
	}
	cfg.Workers = s.Workers
	return cfg
}

// Register declares the selection flags on fs, parsing into s. The list
// flags split on commas and trim spaces; an empty item is kept for Validate.
func (s *Spec) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Table, "table", 0, "table number to regenerate (3, 4, 5, 6, 7)")
	fs.IntVar(&s.Figure, "figure", 0, "figure number to regenerate (1, 2)")
	fs.BoolVar(&s.Efficiency, "efficiency", false, "run the efficiency comparison")
	fs.BoolVar(&s.Descriptions, "descriptions", false, "run the feature-description ablation")
	fs.BoolVar(&s.All, "all", false, "run everything")
	fs.BoolVar(&s.Quick, "quick", false, "use the scaled-down configuration")
	fs.Int64Var(&s.Seed, "seed", 0, "override the experiment seed")
	fs.Var((*nameList)(&s.Datasets), "datasets", "comma-separated dataset subset (default: all eight)")
	fs.Var((*nameList)(&s.Methods), "methods", "comma-separated comparison-method subset for the grid engine (e.g. 'SMARTFEAT,CAAFE'; 'Initial AUC' is always included)")
	fs.IntVar(&s.Workers, "workers", 0, "evaluation parallelism: (dataset × method) cells and per-model training (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
}

// Args renders the spec as the Register flags that parse back into it, up
// to Canonical: one flag per field off its default, in flag-name order.
// Models has no flag and is left out.
func (s Spec) Args() []string {
	var t Spec
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	t.Register(fs)
	t = s // the registered flags now read s's fields
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		switch v := f.Value.String(); {
		case v == f.DefValue:
		case f.DefValue == "false":
			args = append(args, "-"+f.Name)
		default:
			args = append(args, "-"+f.Name, v)
		}
	})
	return args
}

// nameList is a comma-separated list flag.
type nameList []string

func (l *nameList) String() string { return strings.Join(*l, ",") }

func (l *nameList) Set(v string) error {
	*l = nil
	if v == "" {
		return nil
	}
	for _, n := range strings.Split(v, ",") {
		*l = append(*l, strings.TrimSpace(n))
	}
	return nil
}
