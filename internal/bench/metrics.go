package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"ccl/internal/apps/radiance"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/sim"
	"ccl/internal/telemetry"
	"ccl/internal/trees"
)

// heatmapCols is the width of the ASCII set heatmaps in the metrics
// report.
const heatmapCols = 64

// metricsTreeOut is the tree job's payload: the tabulated phase rows
// plus the raw collector reports, keyed by phase name.
type metricsTreeOut struct {
	rows [][]string
	tele map[string]telemetry.Report
}

// metricsRadOut is one RADIANCE job's payload.
type metricsRadOut struct {
	name   string
	cycles int64
	rep    telemetry.Report
}

// metricsRadModes are the Fig. 6 RADIANCE pair the metrics experiment
// contrasts: clustering without and with coloring.
var metricsRadModes = []radiance.Mode{radiance.Cluster, radiance.ClusterColor}

// metricsTree runs the tree microbenchmark before and after ccmorph
// with a collector attached, attributing every miss to the structure
// that caused it and classifying it compulsory/capacity/conflict. The
// "registry" rows are headline counters read from the typed Stats of
// the morph and of the ctree phase.
func metricsTree(s *sim.Sim, full bool) metricsTreeOut {
	p := profiledTreeInputs.at(full)
	n, searches := p.keys, p.searches
	out := metricsTreeOut{tele: map[string]telemetry.Report{}}

	m := s.NewMachine(treeMachine.at(full))
	buildStart := m.Arena.Brk()
	t := trees.MustBuild(m, heap.New(m.Arena), n, trees.RandomOrder, 11)
	buildEnd := m.Arena.Brk()

	runPhase := func(name string, col *telemetry.Collector) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < searches/4; i++ { // steady state (§5.3)
			t.Search(uint32(rng.Int63n(n)) + 1)
		}
		m.ResetStats()
		col.Reset()
		for i := 0; i < searches; i++ {
			t.Search(uint32(rng.Int63n(n)) + 1)
		}
		rep := col.Report()
		out.tele[name] = rep
		out.rows = append(out.rows, metricRows(name, rep, m.Stats().TotalCycles(), searches)...)
	}

	base := telemetry.Attach(m.Cache)
	base.Regions().Register("bst-nodes", buildStart, int64(buildEnd)-int64(buildStart))
	runPhase("bst-base", base)

	// Reorganize into an explicit region so the new layout's
	// extents are known and can be labeled.
	region := lastLevelRegion(m, 0.5)
	morphStats, merr := t.MorphWith(region, ccmorph.SubtreeCluster, nil)
	check(merr)

	ctree := telemetry.Attach(m.Cache)
	ctree.Regions().Register("bst-nodes(old)", buildStart, int64(buildEnd)-int64(buildStart))
	for _, ext := range region.Extents() {
		ctree.Regions().RegisterRange("ctree-nodes", ext)
	}
	runPhase("ctree", ctree)

	out.rows = append(out.rows,
		[]string{"registry", "morph.nodes", fmt.Sprint(morphStats.Nodes)},
		[]string{"registry", "morph.hot_clusters", fmt.Sprint(morphStats.HotClusters)},
		[]string{"registry", "morph.new_bytes", fmt.Sprint(morphStats.NewBytes)},
		[]string{"registry", "cache.cycles.total", fmt.Sprint(m.Stats().TotalCycles())},
	)
	return out
}

// metricsSpec is the telemetry showcase experiment: the tree
// microbenchmark job plus the Fig. 6 RADIANCE pair, each with a
// collector attached. The raw telemetry reports ride along in
// Table.Telemetry, so `ccbench metrics -json` emits the full
// machine-readable record.
func metricsSpec() Spec {
	return Spec{
		ID:   "metrics",
		Desc: "telemetry: 3C miss classes, per-structure attribution, set heatmaps",
		Jobs: func(full bool) []Job {
			js := []Job{{
				Name: "metrics/tree",
				Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
					return metricsTree(s, full), nil
				},
			}}
			for _, mode := range metricsRadModes {
				mode := mode
				js = append(js, Job{
					Name: "metrics/radiance-" + mode.String(),
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						rm := s.NewMachine(radianceMachine.at(full))
						col := telemetry.Attach(rm.Cache)
						r := radiance.Run(rm, mode, radianceConfig.at(full))
						return metricsRadOut{
							name:   "radiance-" + mode.String(),
							cycles: r.Cycles(),
							rep:    col.Report(),
						}, nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:        "metrics",
				Title:     "Telemetry: 3C miss classes, per-structure attribution, set heatmaps",
				Header:    []string{"Workload", "Metric", "Value"},
				Telemetry: map[string]telemetry.Report{},
			}
			tree, haveTree := out[0].(metricsTreeOut)
			if haveTree {
				tab.Rows = append(tab.Rows, tree.rows...)
				for name, rep := range tree.tele {
					tab.Telemetry[name] = rep
				}
			}
			rads := make([]metricsRadOut, 0, len(metricsRadModes))
			for _, v := range out[1:] {
				r, ok := v.(metricsRadOut)
				if !ok {
					continue
				}
				rads = append(rads, r)
				tab.Telemetry[r.name] = r.rep
				last := r.rep.Levels[len(r.rep.Levels)-1]
				tab.Rows = append(tab.Rows,
					[]string{r.name, "cycles", fmt.Sprintf("%d", r.cycles)},
					[]string{r.name, last.Name + " misses (comp/cap/conf)",
						fmt.Sprintf("%d (%d/%d/%d)", last.Misses, last.Compulsory, last.Capacity, last.Conflict)},
				)
			}
			tab.Notes = append(tab.Notes,
				"conflict misses are the class coloring removes (§3.2); compare bst-base vs ctree and the radiance pair")
			if haveTree {
				for _, nm := range []string{"bst-base", "ctree"} {
					tab.Notes = append(tab.Notes, heatmapNote(nm, tree.tele[nm])...)
				}
			}
			for _, r := range rads {
				tab.Notes = append(tab.Notes, heatmapNote(r.name, r.rep)...)
			}
			return tab
		},
	}
}

// metricRows tabulates one search phase: per-level 3C classification
// and per-structure miss attribution.
func metricRows(name string, rep telemetry.Report, cycles int64, searches int) [][]string {
	rows := [][]string{
		{name, "cycles/search", f1(float64(cycles) / float64(searches))},
	}
	for _, l := range rep.Levels {
		rows = append(rows, []string{
			name,
			l.Name + " misses (comp/cap/conf)",
			fmt.Sprintf("%d (%d/%d/%d)", l.Misses, l.Compulsory, l.Capacity, l.Conflict),
		})
	}
	last := len(rep.Levels) - 1
	for _, r := range rep.Regions {
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%s misses <- %s", rep.Levels[last].Name, r.Label),
			fmt.Sprintf("%d (conflict %d)", r.MissesByLevel[last], r.Conflict),
		})
	}
	return rows
}

// heatmapNote renders a phase's set heatmap as note lines.
func heatmapNote(name string, rep telemetry.Report) []string {
	lines := strings.Split(strings.TrimRight(rep.Heatmap.RenderASCII(heatmapCols), "\n"), "\n")
	out := make([]string, 0, len(lines)+1)
	out = append(out, name+":")
	for _, l := range lines {
		out = append(out, "  "+l)
	}
	return out
}
