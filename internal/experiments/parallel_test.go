package experiments

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"smartfeat/internal/datasets"
)

// parallelTestConfig is a small configuration that still exercises every
// method and model family.
func parallelTestConfig() Config {
	cfg := QuickConfig()
	cfg.MaxTrainRows = 400
	cfg.MLPEpochs = 2
	cfg.ForestTrees = 8
	cfg.SamplingBudget = 4
	cfg.CAAFEIterations = 2
	return cfg
}

func TestForEachIndexCoversAllTasks(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var hits [57]int32
		ForEachIndex(workers, len(hits), func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, h)
			}
		}
	}
	ForEachIndex(4, 0, func(int) { t.Fatal("no tasks expected") })
}

// TestParallelHarnessMatchesSequential is the golden-equivalence check for
// the worker pools inside a cell (per-model training, CAAFE sessions): every
// comparison cell computed with a parallel pool must match the fully
// sequential execution (Workers=1) model by model, and the Table 4/5 folds
// over them must render identically.
func TestParallelHarnessMatchesSequential(t *testing.T) {
	names := []string{"Diabetes"}
	seq := parallelTestConfig()
	seq.Workers = 1
	par := parallelTestConfig()
	par.Workers = 8

	seqCells := comparisonCells(t, names, seq)
	parCells := comparisonCells(t, names, par)
	for _, method := range ComparisonMethods() {
		key := [2]string{"Diabetes", method}
		s, p := seqCells[key], parCells[key]
		if !reflect.DeepEqual(s.AUCs, p.AUCs) {
			t.Fatalf("%s per-model AUCs differ: %v vs %v", method, s.AUCs, p.AUCs)
		}
		if !reflect.DeepEqual(s.FailedModels, p.FailedModels) {
			t.Fatalf("%s failures differ: %v vs %v", method, s.FailedModels, p.FailedModels)
		}
	}
	seqAvg, seqMed := foldComparison(names, seq, seqCells)
	parAvg, parMed := foldComparison(names, par, parCells)
	if !reflect.DeepEqual(seqAvg, parAvg) || !reflect.DeepEqual(seqMed, parMed) {
		t.Fatalf("tables differ:\n%s%s\nvs\n%s%s", seqAvg, seqMed, parAvg, parMed)
	}
}

// TestEvaluateFrameParallelMatchesSequential pins the per-model pool inside
// a single frame evaluation.
func TestEvaluateFrameParallelMatchesSequential(t *testing.T) {
	d, err := datasets.Load("Tennis", parallelTestConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(workers int) map[string]float64 {
		cfg := parallelTestConfig()
		cfg.Workers = workers
		aucs, _, err := EvaluateFrame(context.Background(), d.Frame.DropNA(), d.Target, cfg.Models, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return aucs
	}
	if seq, par := eval(1), eval(6); !reflect.DeepEqual(seq, par) {
		t.Fatalf("initial AUCs differ: %v vs %v", seq, par)
	}
}

// TestRunCAAFEParallelMatchesSequential pins the per-downstream-model CAAFE
// fan-out: every AUC, failure marker, retained feature and aggregate count
// must be bit-identical to the sequential loop.
func TestRunCAAFEParallelMatchesSequential(t *testing.T) {
	d, err := datasets.Load("Diabetes", parallelTestConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	clean := d.Frame.DropNA()
	run := func(workers int) MethodResult {
		cfg := parallelTestConfig()
		cfg.Workers = workers
		return RunCAAFE(context.Background(), d, clean, cfg)
	}
	seq := run(1)
	par := run(6)
	if !reflect.DeepEqual(seq.AUCs, par.AUCs) {
		t.Fatalf("AUCs differ: %v vs %v", seq.AUCs, par.AUCs)
	}
	if !reflect.DeepEqual(seq.FailedModels, par.FailedModels) {
		t.Fatalf("failures differ: %v vs %v", seq.FailedModels, par.FailedModels)
	}
	if seq.Generated != par.Generated || seq.Selected != par.Selected {
		t.Fatalf("counts differ: gen %d/%d sel %d/%d", seq.Generated, par.Generated, seq.Selected, par.Selected)
	}
	if !reflect.DeepEqual(seq.NewColumns, par.NewColumns) {
		t.Fatalf("columns differ: %v vs %v", seq.NewColumns, par.NewColumns)
	}
	if (seq.Err == nil) != (par.Err == nil) {
		t.Fatalf("errors differ: %v vs %v", seq.Err, par.Err)
	}
}

// TestRunEfficiencyParallelRowOrder checks that efficiency cells run on a
// pool of workers in expensive-first dispatch order, finishing in any order,
// still fold into the sequential (dataset, method) row order.
func TestRunEfficiencyParallelRowOrder(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.Workers = 8
	methods := Methods()
	order := make([]int, len(methods))
	for i := range order {
		order[i] = i
	}
	ExpensiveFirst(order, func(i int) string { return methods[i] })
	results := make([]MethodResult, len(methods))
	errs := make([]error, len(methods))
	ForEachIndex(cfg.Workers, len(order), func(k int) {
		i := order[k]
		results[i], errs[i] = RunCell(context.Background(), "Diabetes", methods[i], cfg)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", methods[i], err)
		}
	}
	rows := EfficiencyFromCells([]string{"Diabetes"}, func(dataset, method string) (MethodResult, bool) {
		i := slices.Index(methods, method)
		return results[i], dataset == "Diabetes" && i >= 0
	})
	if len(rows) != len(methods) {
		t.Fatalf("got %d rows, want %d", len(rows), len(methods))
	}
	for i, r := range rows {
		if r.Method != methods[i] {
			t.Fatalf("row %d is %s, want %s", i, r.Method, methods[i])
		}
		if r.Dataset != "Diabetes" {
			t.Fatalf("row %d dataset = %s", i, r.Dataset)
		}
	}
}
