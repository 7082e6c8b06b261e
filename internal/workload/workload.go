// Package workload generates the paper's three experimental workloads
// (§6.1, Appendix C, Table 3): Galaxy (noisy telescope readings), Portfolio
// (geometric-Brownian-motion stock forecasts) and TPC-H (data-integration
// uncertainty), each with its eight sPaQL queries.
//
// The original datasets (SDSS DR12 extracts, Yahoo Finance quotes, TPC-H
// dbgen output) are not redistributable/offline-available, so base values
// are produced by seeded synthetic generators with the value ranges the
// paper's query parameters assume; the uncertainty models — the part that
// drives the optimization behaviour — follow Table 3 exactly. See DESIGN.md
// ("Substitutions").
package workload

import (
	"fmt"
	"sort"
	"strings"

	"spq/internal/relation"
	"spq/internal/rng"
)

// Query is one workload query: its sPaQL text, the table it runs against,
// and the paper's metadata for it.
type Query struct {
	// ID is the paper's query name (Q1..Q8).
	ID string
	// Table names the relation in Instance.Tables the query targets.
	Table string
	// SPaQL is the full query text.
	SPaQL string
	// Feasible is the expected feasibility from Table 3.
	Feasible bool
	// FixedZ is the per-workload summary count used in §6.2.1 (1 for Galaxy
	// and Portfolio, 2 for TPC-H).
	FixedZ int
	// Description summarizes the Table 3 row (distribution, p, v, extras).
	Description string
}

// Instance is a generated workload: one or more Monte Carlo relations plus
// the eight queries over them.
type Instance struct {
	Name    string
	Tables  map[string]*relation.Relation
	Queries []Query
}

// TableNames returns the instance's table names in sorted order. Register
// tables in this order: spq.DB seeds each table's mean estimation from its
// registration ordinal, so map order would give different means per run.
func (in *Instance) TableNames() []string {
	names := make([]string, 0, len(in.Tables))
	for name := range in.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Table returns the named relation, panicking on a workload-internal
// inconsistency (unknown table names indicate a bug, not user error).
func (in *Instance) Table(name string) *relation.Relation {
	rel, ok := in.Tables[name]
	if !ok {
		panic(fmt.Sprintf("workload: no table %q in instance %q", name, in.Name))
	}
	return rel
}

// QueryByID returns the query with the given ID (e.g. "Q3").
func (in *Instance) QueryByID(id string) (Query, bool) {
	for _, q := range in.Queries {
		if q.ID == id {
			return q, true
		}
	}
	return Query{}, false
}

// Config controls workload generation.
type Config struct {
	// N is the (base) table size in tuples.
	N int
	// Seed drives the deterministic base-data generator.
	Seed uint64
	// MeansM is the scenario count used to estimate means of attributes
	// with no closed form (default 2000).
	MeansM int
}

// generators is the one list of built-in workloads: ByName, its error and
// Names read it.
var generators = []struct {
	name string
	gen  func(Config) *Instance
}{
	{"galaxy", Galaxy},
	{"portfolio", Portfolio},
	{"tpch", TPCH},
}

// Names lists the built-in workloads ByName generates, in a fixed order.
func Names() []string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.name
	}
	return names
}

// ByName generates the named built-in workload (see Names).
func ByName(name string, cfg Config) (*Instance, error) {
	for _, g := range generators {
		if g.name == name {
			return g.gen(cfg), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Names(), ", "))
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 1000
	}
	if c.MeansM == 0 {
		c.MeansM = 2000
	}
	return c
}

// baseStream returns the deterministic stream used for synthetic base data.
func baseStream(seed uint64, label uint64) *rng.Stream {
	return rng.NewStream(rng.Mix(seed, 0xba5e, label))
}
