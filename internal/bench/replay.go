package bench

import (
	"context"
	"fmt"

	"ccl/internal/oracle"
	"ccl/internal/sim"
	"ccl/internal/trace"
)

// replayOut is one replay cell's payload: how much work the batched
// entry point did and what the hierarchy reported afterwards.
type replayOut struct {
	name    string
	records int
	cycles  int64
	misses  int64 // last-level misses: the workload's fingerprint
}

// replayParams sizes the replay sweep (replayInputs): records per
// geometry and the number of geometries.
type replayParams struct{ perGeom, geoms int }

// replaySpec replays sweep traces through the production simulator via
// trace.AccessTrace — the batched entry point — one geometry per job.
// Its product is a determinism fingerprint (cycles and last-level
// misses per cell are exact, seed-derived values), so a layout or
// simulator change that shifts any cell is visible in the report diff,
// and the cells double as the workload cmd/ccperf times.
func replaySpec() Spec {
	return Spec{
		ID:   "replay",
		Desc: "batched trace replay: cycle/miss fingerprint per sweep geometry",
		Jobs: func(full bool) []Job {
			p := replayInputs.at(full)
			var js []Job
			for g := 0; g < p.geoms; g++ {
				g := g
				js = append(js, Job{
					Name: fmt.Sprintf("replay/geom-%02d", g),
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						tr := oracle.SweepTrace(oracleSeed, g, p.perGeom)
						h, cycles, err := trace.Replay(tr)
						if err != nil {
							return nil, err
						}
						st := h.Stats()
						last := len(st.Levels) - 1
						return replayOut{
							name:    fmt.Sprintf("geom-%02d", g),
							records: len(tr.Records),
							cycles:  cycles,
							misses:  st.Levels[last].Misses,
						}, nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "replay",
				Title:  "Batched trace replay (trace.AccessTrace over sweep geometries)",
				Header: []string{"Cell", "records", "cycles", "LL misses"},
			}
			var cells int
			var cycles int64
			for _, v := range out {
				c, ok := v.(replayOut)
				if !ok {
					continue
				}
				cells++
				cycles += c.cycles
				tab.Rows = append(tab.Rows, []string{
					c.name,
					fmt.Sprintf("%d", c.records),
					fmt.Sprintf("%d", c.cycles),
					fmt.Sprintf("%d", c.misses),
				})
			}
			tab.Notes = append(tab.Notes,
				fmt.Sprintf("%d cells, %d total cycles; values are seed-exact — any diff is a simulator behaviour change", cells, cycles))
			return tab
		},
	}
}
