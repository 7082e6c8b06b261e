package main

import (
	"math"
	"strings"
	"testing"

	"spq"
)

// TestLoadTablesDeterministic: loading the same workloads again gives every
// stochastic attribute bit-identical means, as daemons booted with the same
// flags require.
func TestLoadTablesDeterministic(t *testing.T) {
	cfg := config{workloads: "galaxy,tpch", n: 40, seed: 42, meansM: 30}
	load := func() (*spq.DB, []string) {
		db := spq.NewDB()
		db.MeansM = cfg.meansM
		tables, err := loadTables(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return db, tables
	}
	first, tables := load()
	for run := 1; run < 3; run++ {
		db, _ := load()
		for _, desc := range tables {
			name, _, _ := strings.Cut(desc, " ")
			want, _ := first.Table(name)
			got, ok := db.Table(name)
			if !ok {
				t.Fatalf("load %d: no table %q", run, name)
			}
			for _, attr := range want.StochNames() {
				wm, err := want.Means(attr)
				if err != nil {
					t.Fatal(err)
				}
				gm, err := got.Means(attr)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wm {
					if math.Float64bits(gm[i]) != math.Float64bits(wm[i]) {
						t.Fatalf("load %d: %s.%s tuple %d: mean %v, first load %v", run, name, attr, i, gm[i], wm[i])
					}
				}
			}
		}
	}
}

// TestRunRejectsMeansBelowOne: -means 0 would estimate NaN means, so spqd
// refuses to start, before loading anything (the unknown workload would
// fail the load with another error).
func TestRunRejectsMeansBelowOne(t *testing.T) {
	for _, m := range []int{0, -1} {
		err := run(config{workloads: "nope", n: 10, meansM: m})
		if err == nil || !strings.Contains(err.Error(), "-means") {
			t.Fatalf("-means %d: err = %v, want a -means error", m, err)
		}
	}
}

// TestRunRejectsBadFlagsBeforeLoading: a malformed -tenants, -classes or
// -log-format is reported before any table is loaded (the unknown workload
// would fail the load with another error).
func TestRunRejectsBadFlagsBeforeLoading(t *testing.T) {
	for _, tc := range []struct {
		flag string
		cfg  config
	}{
		{"-tenants", config{tenants: "bad"}},
		{"-classes", config{classes: "bad"}},
		{"-log-format", config{logFormat: "xml"}},
	} {
		tc.cfg.workloads, tc.cfg.meansM = "nope", 1
		err := run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%s: err = %v, want a %s error", tc.flag, err, tc.flag)
		}
	}
}
