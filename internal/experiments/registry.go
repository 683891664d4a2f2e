package experiments

import (
	"fmt"
	"sort"
)

// Context carries shared state across experiments so that one BT pipeline
// run feeds all the figures derived from it.
type Context struct {
	Opt   Options
	btRun *BTRun
}

// NewContext builds a context.
func NewContext(opt Options) *Context { return &Context{Opt: opt} }

// BT lazily runs (and caches) the BT pipeline over TiMR.
func (c *Context) BT() (*BTRun, error) {
	if c.btRun == nil {
		r, err := RunBT(c.Opt)
		if err != nil {
			return nil, err
		}
		c.btRun = r
	}
	return c.btRun, nil
}

// Experiment is one reproducible table/figure of the paper.
type Experiment struct {
	Name    string // registry key, e.g. "fig16"
	Caption string // what the paper reports
	Run     func(*Context) (*Table, error)
}

var registry = []Experiment{
	{"strawman", "§II-C strawman: SCOPE self-join vs custom reducer vs TiMR on RunningClickCount", Strawman},
	{"fig14", "Figure 14: development effort and end-to-end BT processing time, custom vs TiMR", Fig14},
	{"fig15", "Figure 15: per-machine engine throughput for each BT sub-query", Fig15},
	{"fig16", "Figure 16: temporal partitioning — runtime vs span width", Fig16},
	{"ex3", "Example 3 / §V-B: fragment optimization, naive vs optimized annotation", Example3},
	{"fig17", "Figures 17-19: highest/lowest z-score keywords per ad class", Fig17to19},
	{"fig20", "Figure 20: dimensionality reduction vs z-score threshold (and F-Ex)", Fig20},
	{"fig21", "Figure 21: keyword elimination and CTR lift on example subsets", Fig21},
	{"fig22", "Figures 22-23: CTR lift vs coverage per data-reduction scheme", Fig22and23},
	{"memtime", "§V-D: UBP memory footprint and LR learning time per scheme", MemTime},
	{"botstats", "§IV-B.1: bot population, activity share and signal dilution", BotStats},
	{"failures", "§III-C.1: repeatability and cost under reducer failures", FailureRecovery},
}

// All returns every experiment in presentation order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// Names lists registry keys.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// ByName finds one experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}
