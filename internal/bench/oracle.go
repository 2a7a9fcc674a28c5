package bench

import (
	"context"
	"fmt"
	"math/rand"

	"ccl/internal/cache"
	"ccl/internal/oracle"
	"ccl/internal/sim"
	"ccl/internal/trace"
)

// oracleOut is one differential cell's payload.
type oracleOut struct {
	name    string
	records int
	detail  string // divergence description, empty when the simulators agree
}

// oracleSeed matches the acceptance test's sweep
// (TestDifferentialMillionAccesses), so a ccbench oracle run and a go
// test run exercise the same geometries.
const oracleSeed = 42

// oracleGeometries is the random-geometry cell count, the acceptance
// test's floor of "at least twenty".
const oracleGeometries = 24

// oracleNamedConfigs are the production hierarchies the experiments
// actually run on, replayed with a fixed pseudo-random stream.
func oracleNamedConfigs() []struct {
	name string
	cfg  cache.Config
} {
	return []struct {
		name string
		cfg  cache.Config
	}{
		{"paper", cache.PaperHierarchy()},
		{"paper-scaled", cache.ScaledHierarchy(64)},
		{"rsim", cache.RSIMHierarchy()},
	}
}

// oracleParams sizes the oracle sweep (oracleInputs): records per
// random geometry and per named hierarchy.
type oracleParams struct{ perGeom, named int }

// oracleSpec runs the differential oracle sweep as a first-class
// experiment: every random geometry of the acceptance gate plus the
// named production hierarchies, each cell an independent job (the
// sweep's traces depend only on (seed, cell), so results are
// identical at any parallelism). A divergence is reported as a table
// row, not a panic: the experiment's product is the agreement record.
func oracleSpec() Spec {
	return Spec{
		ID:   "oracle",
		Desc: "differential oracle sweep: production vs reference simulator agreement",
		Jobs: func(full bool) []Job {
			p := oracleInputs.at(full)
			var js []Job
			for g := 0; g < oracleGeometries; g++ {
				g := g
				js = append(js, Job{
					Name: fmt.Sprintf("oracle/geom-%02d", g),
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						tr := oracle.SweepTrace(oracleSeed, g, p.perGeom)
						out := oracleOut{name: fmt.Sprintf("geom-%02d", g), records: len(tr.Records)}
						if d := oracle.Diff(tr); d != nil {
							out.detail = d.String()
						}
						return out, nil
					},
				})
			}
			for _, nc := range oracleNamedConfigs() {
				nc := nc
				js = append(js, Job{
					Name: "oracle/" + nc.name,
					Run: func(ctx context.Context, s *sim.Sim, full bool) (any, error) {
						rng := rand.New(rand.NewSource(7))
						tr := trace.Trace{Config: nc.cfg, Records: oracle.RandomRecords(rng, p.named)}
						out := oracleOut{name: nc.name, records: len(tr.Records)}
						if d := oracle.Diff(tr); d != nil {
							out.detail = d.String()
						}
						return out, nil
					},
				})
			}
			return js
		},
		Assemble: func(full bool, out []any) Table {
			tab := Table{
				ID:     "oracle",
				Title:  "Differential oracle sweep (production vs reference simulator)",
				Header: []string{"Cell", "records", "verdict"},
			}
			diverged := 0
			total := 0
			for _, v := range out {
				c, ok := v.(oracleOut)
				if !ok {
					continue
				}
				total++
				verdict := "agree"
				if c.detail != "" {
					diverged++
					verdict = "DIVERGED: " + c.detail
				}
				tab.Rows = append(tab.Rows, []string{c.name, fmt.Sprintf("%d", c.records), verdict})
			}
			if diverged == 0 {
				tab.Notes = append(tab.Notes,
					fmt.Sprintf("all %d cells agree; the acceptance gate replays the same geometries under go test", total))
			} else {
				tab.Notes = append(tab.Notes,
					fmt.Sprintf("%d of %d cells DIVERGED — capture with ORACLE_CAPTURE=1 go test ./internal/oracle", diverged, total))
			}
			return tab
		},
	}
}
