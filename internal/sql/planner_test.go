package sql

import (
	"strings"
	"sync"
	"testing"

	"qppt/internal/ssb"
)

var (
	miniOnce sync.Once
	miniDS   *ssb.Dataset
)

func miniPlanner(t *testing.T) *Planner {
	t.Helper()
	miniOnce.Do(func() { miniDS = ssb.MustLoad(ssb.GenConfig{SF: 0.002, Seed: 5}) })
	return NewPlanner(miniDS.Cat)
}

// TestPlannerRejectsUnjoinedTables: a FROM table without a join predicate
// must be a planning error, never a nil dereference — over the wire a
// planner panic takes the whole server down.
func TestPlannerRejectsUnjoinedTables(t *testing.T) {
	p := miniPlanner(t)
	for _, tc := range []struct {
		name, src, wantErr string
	}{
		{
			name: "grouped by an unjoined dimension",
			src: `select d_year, sum(lo_revenue) from customer, lineorder, supplier, date
				where lo_custkey = c_custkey group by d_year`,
			wantErr: "no join predicate",
		},
		{
			name:    "unjoined dimension, no group-by",
			src:     "select sum(lo_revenue) from lineorder, customer, part where lo_custkey = c_custkey",
			wantErr: "no join predicate",
		},
		{
			name: "restricted and unjoined",
			src: `select sum(lo_revenue) from lineorder, customer, supplier
				where lo_custkey = c_custkey and s_region = 'ASIA'`,
			wantErr: "no join predicate",
		},
		{
			name:    "two tables, no join at all",
			src:     "select sum(lo_revenue) from lineorder, customer",
			wantErr: "without join conditions",
		},
		{
			name: "every table joined",
			src: `select d_year, sum(lo_revenue) from customer, lineorder, date
				where lo_custkey = c_custkey and lo_orderdate = d_datekey group by d_year`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := p.PlanSQL(tc.src, Options{UseSelectJoin: true})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected a valid query: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("accepted a query with an unjoined table")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}
