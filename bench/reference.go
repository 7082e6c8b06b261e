package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"spq/internal/spaql"
	"spq/internal/translate"
)

// writeReference recomputes reference.json: for every feasible template of
// every workload, the best harness-validated objective over eight evaluation
// seeds at four times the template's MaxM. It prints the file; runs never
// rewrite it.
func writeReference(sz sizes, stdout, stderr io.Writer) int {
	refs := map[string]reference{}
	ctx := context.Background()
	for _, def := range workloads {
		p := def.build(sz, 1)
		chk := newChecker(sz, p)
		in, err := p.setup(nil)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, t := range p.templates {
			if !t.feasible {
				continue
			}
			q, err := spaql.Parse(t.query)
			if err == nil {
				var silp *translate.SILP
				if silp, err = translate.Build(q, in.cat[t.table].Snapshot(), nil); err == nil {
					err = bestOf(ctx, chk, t, silp, refs)
				}
			}
			if err != nil {
				in.close()
				fmt.Fprintf(stderr, "bench: reference for %s: %v\n", t.id, err)
				return 1
			}
			fmt.Fprintf(stderr, "%-44s %v\n", t.id, refs[t.id])
		}
		in.close()
	}
	raw, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		panic(err) // plain numbers always marshal
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

func bestOf(ctx context.Context, chk *checker, t *template, silp *translate.SILP, refs map[string]reference) error {
	for seed := uint64(1); seed <= 8; seed++ {
		opts := t.opts
		opts.Seed, opts.Parallelism, opts.MaxM = seed, 2, 4*t.opts.MaxM
		sol, _, err := t.solve(ctx, silp, &opts, 2)
		if err != nil {
			return err
		}
		if !sol.Feasible {
			continue
		}
		v, err := chk.validate(silp, sol.X)
		if err != nil {
			return err
		}
		if !v.ok {
			continue
		}
		r, have := refs[t.id]
		if !have || (v.maximize && v.objective > r.Objective) || (!v.maximize && v.objective < r.Objective) {
			refs[t.id] = reference{Objective: v.objective, Maximize: v.maximize}
		}
	}
	return nil
}
