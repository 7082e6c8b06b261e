package experiments

import (
	"context"
	"fmt"
	"strings"

	"spq/internal/rng"
	"spq/internal/scenario"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// SizeRecord reports the coefficient count of one generated DILP — the
// paper's problem-size measure (Θ(NMK) for SAA vs Θ(NZK) for CSA, §3.1 and
// §4.1).
type SizeRecord struct {
	Workload     string
	Query        string
	Formulation  string // "SAA" or "CSA"
	N, M, Z      int
	Coefficients int
}

// RunSizes builds SAA formulations at each M and CSA formulations at each Z
// for the first query of a workload and reports DILP sizes.
func RunSizes(cfg Config, wname, queryID string, ms, zs []int) ([]SizeRecord, error) {
	in, err := buildInstance(wname, cfg.WorkloadN, cfg.DataSeed, cfg.MeansM)
	if err != nil {
		return nil, err
	}
	q, ok := in.QueryByID(queryID)
	if !ok {
		return nil, fmt.Errorf("experiments: %s has no query %s", wname, queryID)
	}
	parsed, err := spaql.Parse(q.SPaQL)
	if err != nil {
		return nil, err
	}
	silp, err := translate.Build(parsed, in.Table(q.Table), nil)
	if err != nil {
		return nil, err
	}
	src := rng.NewSource(cfg.DataSeed).Derive(99)
	var out []SizeRecord
	maxM := 0
	for _, m := range ms {
		if m > maxM {
			maxM = m
		}
	}
	sets, objSet, err := silp.GenerateSets(src, 0, maxM)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		sub := make([]*scenario.Set, len(sets))
		for k, s := range sets {
			sub[k] = scenario.FromRows(s.Attr, s.IDs[:m], rowsPrefix(s, m))
		}
		var objSub *scenario.Set
		if objSet != nil {
			objSub = scenario.FromRows(objSet.Attr, objSet.IDs[:m], rowsPrefix(objSet, m))
		}
		model, _, err := silp.FormulateSAA(sub, objSub)
		if err != nil {
			return nil, err
		}
		out = append(out, SizeRecord{
			Workload: wname, Query: q.ID, Formulation: "SAA",
			N: silp.N, M: m, Coefficients: model.NumCoefficients(),
		})
	}
	for _, z := range zs {
		if z > maxM {
			continue
		}
		summaries := make([][]*scenario.Summary, len(silp.ProbCons))
		parts := scenario.PartitionIDs(maxM, z, 1)
		for k, pc := range silp.ProbCons {
			for _, part := range parts {
				sm, err := sets[k].SummarizeP(context.Background(), part, pc.Direction(), nil, 1)
				if err != nil {
					return nil, err
				}
				summaries[k] = append(summaries[k], sm)
			}
		}
		var objSummaries []*scenario.Summary
		if objSet != nil {
			dir := scenario.Max
			if silp.ObjGeq {
				dir = scenario.Min
			}
			for _, part := range parts {
				sm, err := objSet.SummarizeP(context.Background(), part, dir, nil, 1)
				if err != nil {
					return nil, err
				}
				objSummaries = append(objSummaries, sm)
			}
		}
		model, _, err := silp.FormulateCSA(summaries, objSummaries)
		if err != nil {
			return nil, err
		}
		out = append(out, SizeRecord{
			Workload: wname, Query: q.ID, Formulation: "CSA",
			N: silp.N, M: maxM, Z: z, Coefficients: model.NumCoefficients(),
		})
	}
	return out, nil
}

func rowsPrefix(s *scenario.Set, m int) [][]float64 {
	rows := make([][]float64, m)
	for j := 0; j < m; j++ {
		rows[j] = s.Row(j)
	}
	return rows
}

// RenderSizes renders size records as a text table.
func RenderSizes(recs []SizeRecord) string {
	var sb strings.Builder
	sb.WriteString("== DILP size: SAA Θ(NMK) vs CSA Θ(NZK) ==\n")
	fmt.Fprintf(&sb, "%-10s %-4s %-5s %8s %6s %6s %14s\n", "workload", "qry", "form", "N", "M", "Z", "coefficients")
	for _, r := range recs {
		z := "-"
		if r.Formulation == "CSA" {
			z = fmt.Sprintf("%d", r.Z)
		}
		fmt.Fprintf(&sb, "%-10s %-4s %-5s %8d %6d %6s %14d\n",
			r.Workload, r.Query, r.Formulation, r.N, r.M, z, r.Coefficients)
	}
	return sb.String()
}

// DescribeWorkloads renders the Table 3 reproduction: every query of every
// workload with its parameters.
func DescribeWorkloads(cfg Config, workloads []string) (string, error) {
	var sb strings.Builder
	sb.WriteString("== Table 3: workloads and queries ==\n")
	for _, wname := range workloads {
		in, err := buildInstance(wname, cfg.WorkloadN, cfg.DataSeed, cfg.MeansM)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "\n-- %s --\n", in.Name)
		for _, q := range in.Queries {
			rel := in.Table(q.Table)
			feas := "feasible"
			if !q.Feasible {
				feas = "INFEASIBLE"
			}
			fmt.Fprintf(&sb, "%-4s N=%-7d Z=%d %-10s %s\n", q.ID, rel.N(), q.FixedZ, feas, q.Description)
			fmt.Fprintf(&sb, "     %s\n", oneLine(q.SPaQL))
		}
	}
	return sb.String(), nil
}

func oneLine(s string) string {
	fields := strings.Fields(s)
	return strings.Join(fields, " ")
}

// WorkloadNames lists the supported workloads.
func WorkloadNames() []string { return []string{"galaxy", "portfolio", "tpch"} }
