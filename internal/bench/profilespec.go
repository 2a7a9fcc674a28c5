package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"ccl/internal/cache"
	"ccl/internal/heap"
	"ccl/internal/olden"
	"ccl/internal/olden/treeadd"
	"ccl/internal/profile"
	"ccl/internal/sim"
	"ccl/internal/trees"
)

// fieldprofOut is one profiled workload's payload.
type fieldprofOut struct {
	name string
	prof profile.Report
}

// fieldprofTree profiles the tree-search microbenchmark across a
// morph: steady-state searches on the randomly-clustered tree, an
// explicit epoch boundary, then searches on the reorganized C-tree
// registered under its own label. The field table shows which BST
// members miss; the phase series shows the miss rate drop at the
// boundary.
func fieldprofTree(s *sim.Sim, mcfg cache.Config, p searchParams) fieldprofOut {
	n, searches := p.keys, p.searches
	m := s.NewMachine(mcfg)
	t := trees.MustBuild(m, heap.New(m.Arena), n, trees.RandomOrder, 11)

	// SampleEvery 1: the microbenchmark is small enough to attribute
	// exactly, so the table is ground truth rather than an estimate.
	prof := profile.Attach(m.Cache, profile.Config{})
	t.RegisterNodes(prof.Regions(), "bst-nodes")

	rng := rand.New(rand.NewSource(5))
	search := func(count int) {
		for i := 0; i < count; i++ {
			t.Search(uint32(rng.Int63n(n)) + 1)
		}
	}
	search(searches / 4) // steady state (§5.3)
	m.ResetStats()
	prof.Reset()
	search(searches)
	prof.CloseEpoch() // phase boundary: epochs never straddle the morph

	_, merr := t.Morph(0.5, nil)
	check(merr)
	t.RegisterNodes(prof.Regions(), "ctree-nodes")
	search(searches)

	return fieldprofOut{name: "bst-search", prof: prof.Report()}
}

// fieldprofTreeadd profiles an Olden kernel through the Env.Profile
// hook, sampled 1-in-5: construction traffic lands in "(other)" (the
// nodes are registered only once the tree exists), the summing
// traversals resolve to treeadd-node fields. The period must be
// coprime to the kernel's value/left/right access cycle — a multiple
// of 3 would alias with it and charge one field with every sample.
func fieldprofTreeadd(s *sim.Sim, mcfg cache.Config, cfg treeadd.Config) fieldprofOut {
	env := olden.NewEnvIn(s, olden.Base, mcfg)
	prof := profile.Attach(env.M.Cache, profile.Config{SampleEvery: 5})
	env.Profile = prof.Regions()
	treeadd.Run(env, cfg)
	return fieldprofOut{name: "treeadd", prof: prof.Report()}
}

// fieldprofSpec is the profiler showcase experiment: per-field
// hot/cold tables, phase time series, and (via ccbench -profile) the
// ccl-profile/v1 JSON and pprof exports.
func fieldprofSpec() Spec {
	return Spec{
		ID:   "fieldprof",
		Desc: "field-level miss profile: hot/cold fields, phase series, pprof export",
		Jobs: func(full bool) []Job {
			tm, tp := treeMachine.at(full), profiledTreeInputs.at(full)
			om, oc := oldenMachine.at(full), treeaddConfig.at(full)
			return []Job{
				{Name: "fieldprof/bst-search", Run: func(ctx context.Context, s *sim.Sim, _ bool) (any, error) {
					return fieldprofTree(s, tm, tp), nil
				}},
				{Name: "fieldprof/treeadd", Run: func(ctx context.Context, s *sim.Sim, _ bool) (any, error) {
					return fieldprofTreeadd(s, om, oc), nil
				}},
			}
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:       "fieldprof",
				Title:    "Field-level cache-miss profile (sampled attribution + phase series)",
				Header:   []string{"Workload", "Structure.Field", "Accesses", "LL misses", "Stall cyc", "Rank"},
				Profiles: map[string]profile.Report{},
			}
			for _, v := range out {
				o, ok := v.(fieldprofOut)
				if !ok {
					continue
				}
				tab.Profiles[o.name] = o.prof
				tab.Rows = append(tab.Rows, fieldRows(o.name, o.prof)...)
				tab.Notes = append(tab.Notes, profileNote(o.name, o.prof)...)
			}
			tab.Notes = append(tab.Notes,
				"hot fields cover >=90% of a structure's misses (the split/reorder candidates keep them together; §3.1)",
				"re-run with ccbench -profile DIR to export ccl-profile/v1 JSON and pprof profiles")
			return tab
		},
	}
}

// fieldRows tabulates a profile's field ranking, hottest structures
// and fields first.
func fieldRows(name string, rep profile.Report) [][]string {
	var rows [][]string
	for _, s := range rep.Structs {
		for _, f := range s.Fields {
			rank := "cold"
			if f.Hot {
				rank = "HOT"
			}
			rows = append(rows, []string{
				name,
				s.Label + "." + f.Field,
				fmt.Sprintf("%d", f.Accesses),
				fmt.Sprintf("%d", f.LLMisses),
				fmt.Sprintf("%d", f.StallCycles),
				rank,
			})
		}
	}
	return rows
}

// profileNote renders a workload's phase series as note lines.
func profileNote(name string, rep profile.Report) []string {
	lines := strings.Split(strings.TrimRight(rep.RenderSeries(), "\n"), "\n")
	out := make([]string, 0, len(lines)+1)
	out = append(out, name+":")
	for _, l := range lines {
		out = append(out, "  "+l)
	}
	return out
}
