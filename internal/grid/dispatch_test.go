package grid

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"smartfeat/internal/experiments"
	"smartfeat/internal/lease"
)

// claimLog is an in-memory claimer that records the order cells are claimed
// in, which is the order the runner dispatches them.
type claimLog struct {
	lease.Claimer
	mu   sync.Mutex
	keys []string
}

func (c *claimLog) Claim(key string) (lease.Claim, bool, error) {
	c.mu.Lock()
	c.keys = append(c.keys, key)
	c.mu.Unlock()
	return c.Claimer.Claim(key)
}

// TestGridDispatchesExpensiveFirst pins the dispatch order: CAAFE cells are
// claimed first, then SMARTFEAT cells, then the rest, each group in plan
// order. Outcomes and efficiency rows stay in plan order, and the tables are
// byte-identical at one and two workers.
func TestGridDispatchesExpensiveFirst(t *testing.T) {
	names := []string{"Diabetes", "Tennis"}
	plan := ComparisonPlan(names, nil)
	var want []string
	for _, group := range []func(string) bool{
		func(m string) bool { return m == experiments.MethodCAAFE },
		func(m string) bool { return m == experiments.MethodSmartfeat },
		func(m string) bool { return m != experiments.MethodCAAFE && m != experiments.MethodSmartfeat },
	} {
		for _, c := range plan {
			if group(c.Method) {
				want = append(want, c.Key())
			}
		}
	}

	var wantRows []string
	for _, c := range plan {
		if c.Method != experiments.MethodInitial {
			wantRows = append(wantRows, c.String())
		}
	}

	tables := make(map[int]string)
	for _, workers := range []int{1, 2} {
		cfg := tinyConfig()
		cfg.Workers = workers
		log := &claimLog{Claimer: lease.NewMem()}
		res, err := (&Runner{Config: cfg, Claimer: log}).Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 && !reflect.DeepEqual(log.keys, want) {
			t.Fatalf("claim order\n%v\nwant\n%v", log.keys, want)
		}
		for i, o := range res.Outcomes {
			if o.Cell != plan[i] {
				t.Fatalf("workers=%d: outcome %d is %s, plan has %s", workers, i, o.Cell, plan[i])
			}
		}
		var rows []string
		for _, r := range res.Efficiency(names) {
			rows = append(rows, r.Dataset+" × "+r.Method)
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("workers=%d: efficiency rows\n%v\nwant\n%v", workers, rows, wantRows)
		}
		avg, median := comparisonTables(t, res, names, cfg)
		tables[workers] = avg.String() + median.String()
	}
	if tables[1] != tables[2] {
		t.Fatalf("tables differ between 1 and 2 workers:\n%s\nvs\n%s", tables[1], tables[2])
	}
}
