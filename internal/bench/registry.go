package bench

import (
	"fmt"
	"sort"
)

// Runner regenerates one of the paper's tables or figures.
type Runner func(Options) (Result, error)

// Experiment pairs a runner with its description.
type Experiment struct {
	ID          string
	Description string
	Run         Runner
}

// instrument wraps a runner with the observability bookkeeping: the
// sink starts each experiment empty (collectors belong to engines the
// previous experiment already discarded) and the merged latency table
// is attached to the result afterwards.
func instrument(run Runner) Runner {
	return func(o Options) (Result, error) {
		if o.Obs != nil {
			o.Obs.Reset()
		}
		res, err := run(o)
		if o.Obs != nil && err == nil {
			res.Latency = o.Obs.Rows()
		}
		return res, err
	}
}

// Experiments lists every reproducible table and figure in paper order.
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig8", "YCSB-RO throughput vs data size, five architectures (Figure 8)", Fig8},
		{"fig9", "TPC-C throughput vs warehouses, five architectures (Figure 9)", Fig9},
		{"fig10", "performance drill-down of the proposed optimizations (Figure 10)", Fig10},
		{"scan", "scan overhead of the optimizations, §5.4.2 table", ScanOverhead},
		{"fig11", "hybrid DRAM-NVM structures vs FPTree (Figure 11)", Fig11},
		{"fig12", "NVM latency sweep (Figure 12)", Fig12},
		{"fig13", "DRAM buffer size sweep (Figure 13)", Fig13},
		{"fig14", "large workloads, appendix A.2 (Figure 14)", Fig14},
		{"fig15", "update-ratio sweep, appendix A.3 (Figure 15)", Fig15},
		{"fig16", "NVM wear, appendix A.4 (Figure 16)", Fig16},
		{"fig17", "restart ramp-up, appendix A.5 (Figure 17)", Fig17},
		{"figA1", "multi-threaded scalability, appendix A.1 (threads sweep)", FigA1},
		{"ablation", "NVM admission ablation: duel vs always-admit (not in the paper)", AblationAdmission},
	}
	for i := range exps {
		exps[i].Run = instrument(exps[i].Run)
	}
	return exps
}

// Lookup returns the experiment of exps with the given id. Callers
// pass Experiments(), extended by runners from packages that import this
// one (nvmbench adds internal/remote's replication experiment).
func Lookup(exps []Experiment, id string) (Experiment, error) {
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}
