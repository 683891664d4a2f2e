// Package core implements TiMR (paper §III): a framework that runs
// declarative temporal continuous queries over large offline datasets by
// compiling annotated CQ plans into map-reduce stages, embedding an
// unmodified single-node temporal engine (internal/temporal) inside each
// reducer. Neither the map-reduce simulator nor the temporal engine is
// modified — TiMR is purely the plumbing between them, as in the paper.
//
// The pipeline mirrors the paper's Figure 5:
//
//	Parse query  → a temporal.Plan built with the fluent builder
//	Annotate     → exchange operators, via explicit hints (Plan.Exchange)
//	               or the cost-based Optimizer (§VI)
//	Make frags   → MakeFragments cuts the plan at exchanges
//	Convert      → Job builds one mapreduce.Stage per fragment, whose
//	               reducer P feeds rows as events to the embedded engine
package core

import (
	"fmt"

	"timr/internal/temporal"
)

// FragmentInput describes one input edge of a fragment.
type FragmentInput struct {
	// Dataset is the FS dataset name the stage reads.
	Dataset string
	// ScanName is the name the fragment's plan scans this input under.
	ScanName string
	// Intermediate marks TiMR-produced datasets whose rows carry
	// [__LE, __RE, payload...]; raw sources instead carry a Time column
	// (paper footnote 2).
	Intermediate bool
	// Schema is the event payload schema.
	Schema *temporal.Schema
	// Part is how the stage partitions this input.
	Part temporal.PartitionBy
}

// Fragment is a maximal exchange-free subplan (paper §III-A step 3),
// executable by one embedded engine instance per partition.
type Fragment struct {
	Name   string
	Root   *temporal.Plan
	Inputs []FragmentInput
	Output string
	// Final marks the job's last fragment (its output is the query
	// result); intermediate outputs feed downstream fragments.
	Final bool
	// Named holds the final fragment's further output roots, one per
	// root MakeFragments was given beside the plan, in order. Each runs in
	// the same engine as Root and shares its nodes.
	Named []*temporal.Plan
	// Part is the fragment's partitioning key: the common key of the
	// exchange operators at its input boundary.
	Part temporal.PartitionBy
}

// MakeFragments cuts an annotated plan into fragments at exchange
// operators, top-down (paper §III-A step 3). sourceDatasets maps scan
// names to FS dataset names; output is the FS name for the final result.
// Each named root is a further output of the final fragment (its Named):
// it may share nodes with the plan, and must be computable from the final
// fragment's inputs. Fragments are returned in execution (bottom-up) order.
func MakeFragments(plan *temporal.Plan, sourceDatasets map[string]string, output string, named ...*temporal.Plan) ([]Fragment, error) {
	f := &fragmenter{sources: sourceDatasets, named: named}
	if _, err := f.build(plan, output, true); err != nil {
		return nil, err
	}
	// build appends parents before children; reverse for execution order.
	for i, j := 0, len(f.frags)-1; i < j; i, j = i+1, j-1 {
		f.frags[i], f.frags[j] = f.frags[j], f.frags[i]
	}
	return f.frags, nil
}

type fragmenter struct {
	sources map[string]string
	named   []*temporal.Plan
	frags   []Fragment
	n       int
}

// build creates the fragment whose root is `root` and output dataset is
// `out`, recursing below each exchange encountered. It returns the index
// of the created fragment.
func (f *fragmenter) build(root *temporal.Plan, out string, final bool) (int, error) {
	idx := len(f.frags)
	frag := Fragment{Name: fmt.Sprintf("frag%d", f.n), Output: out, Final: final}
	f.n++
	f.frags = append(f.frags, frag) // placeholder; filled below (children appended after)

	memo := make(map[*temporal.Plan]*temporal.Plan)
	var inputs []FragmentInput
	var firstErr error
	seenScan := make(map[string]bool)

	var clone func(n *temporal.Plan) *temporal.Plan
	clone = func(n *temporal.Plan) *temporal.Plan {
		if c, ok := memo[n]; ok {
			return c
		}
		var c *temporal.Plan
		switch n.Kind {
		case temporal.OpExchange:
			below := n.Inputs[0]
			var in FragmentInput
			if below.Kind == temporal.OpScan {
				ds, ok := f.sources[below.Source]
				if !ok {
					if firstErr == nil {
						firstErr = fmt.Errorf("timr: no dataset bound to source %q", below.Source)
					}
					ds = below.Source
				}
				in = FragmentInput{
					Dataset: ds, ScanName: below.Source,
					Schema: below.Out, Part: n.Part,
				}
				c = temporal.Scan(below.Source, below.Out)
			} else {
				childOut := fmt.Sprintf("%s.x%d", out, f.n)
				if _, err := f.build(below, childOut, false); err != nil && firstErr == nil {
					firstErr = err
				}
				scanName := childOut
				in = FragmentInput{
					Dataset: childOut, ScanName: scanName, Intermediate: true,
					Schema: n.Out, Part: n.Part,
				}
				c = temporal.Scan(scanName, n.Out)
			}
			inputs = append(inputs, in)
			if seenScan[in.ScanName] {
				// Two exchanges over the same source within one fragment:
				// legal only with identical partitioning.
				for _, prev := range inputs[:len(inputs)-1] {
					if prev.ScanName == in.ScanName && prev.Part.String() != in.Part.String() {
						if firstErr == nil {
							firstErr = fmt.Errorf("timr: source %q enters fragment with conflicting partitionings %s vs %s",
								in.ScanName, prev.Part, in.Part)
						}
					}
				}
				inputs = inputs[:len(inputs)-1] // deduplicate
			}
			seenScan[in.ScanName] = true
		case temporal.OpScan:
			// Raw scan without an explicit exchange above it: the stage
			// still has to ship these rows somewhere, so it inherits the
			// fragment's key (an implicit exchange). Recorded with an
			// empty Part and resolved in finalize().
			ds, ok := f.sources[n.Source]
			if !ok {
				if firstErr == nil {
					firstErr = fmt.Errorf("timr: no dataset bound to source %q", n.Source)
				}
				ds = n.Source
			}
			if !seenScan[n.Source] {
				seenScan[n.Source] = true
				inputs = append(inputs, FragmentInput{
					Dataset: ds, ScanName: n.Source, Schema: n.Out,
				})
			}
			c = n // scans are immutable; safe to share
		default:
			cp := *n
			cp.Inputs = make([]*temporal.Plan, len(n.Inputs))
			for i, in := range n.Inputs {
				cp.Inputs[i] = clone(in)
			}
			c = &cp
		}
		memo[n] = c
		return c
	}

	newRoot := clone(root)
	if final {
		n := len(inputs)
		for _, r := range f.named {
			c := clone(r)
			// A root that needs another input, or is an exchange, is
			// another fragment's node.
			if r.Kind == temporal.OpExchange || len(inputs) != n {
				return idx, fmt.Errorf("timr: output root %s is not in the final fragment", r.Kind)
			}
			frag.Named = append(frag.Named, c)
		}
	}
	if firstErr != nil {
		return idx, firstErr
	}
	frag.Root = newRoot
	frag.Inputs = inputs
	if err := frag.finalize(); err != nil {
		return idx, err
	}
	f.frags[idx] = frag
	return idx, nil
}

// finalize derives the fragment's key from its input boundary and fills
// implicit partitionings.
func (frag *Fragment) finalize() error {
	var key *temporal.PartitionBy
	for i := range frag.Inputs {
		p := frag.Inputs[i].Part
		if len(p.Cols) == 0 && !p.Temporal {
			continue // implicit; filled below
		}
		if key == nil {
			key = &frag.Inputs[i].Part
			continue
		}
		// Multi-input operators require identically partitioned inputs
		// (paper footnote 1). Keys may name different columns on each
		// side of a join but must agree in kind and arity.
		if key.Temporal != p.Temporal || len(key.Cols) != len(p.Cols) {
			return fmt.Errorf("timr: fragment %s inputs have incompatible partitionings %s vs %s",
				frag.Name, key, p)
		}
	}
	if key == nil {
		// No exchange anywhere below: the fragment is not partitionable;
		// it runs as a single task (Part zero value = random/none).
		frag.Part = temporal.PartitionBy{}
		return nil
	}
	frag.Part = *key
	for i := range frag.Inputs {
		p := &frag.Inputs[i].Part
		if len(p.Cols) == 0 && !p.Temporal {
			// Implicit exchange: partition this input by the fragment key.
			// Its columns must exist in the input's schema.
			if !key.Temporal {
				for _, c := range key.Cols {
					if !frag.Inputs[i].Schema.Has(c) {
						return fmt.Errorf("timr: fragment %s key %s not available on input %s",
							frag.Name, key, frag.Inputs[i].ScanName)
					}
				}
			}
			*p = *key
		}
	}
	return nil
}
