package telemetry

import (
	"fmt"
	"strings"
)

// Report is a collector's point-in-time summary, shaped for
// encoding/json. The schema is documented in DESIGN.md ("Telemetry"),
// and committed BENCH_*.json files embed it verbatim.
type Report struct {
	Levels  []LevelReport  `json:"levels"`
	Heatmap Heatmap        `json:"heatmap"`
	Regions []RegionReport `json:"regions,omitempty"`
}

// LevelReport is one cache level's demand-access summary with the 4C
// miss breakdown (Compulsory + Capacity + Conflict + Coherence ==
// Misses). Coherence carries omitempty so single-core reports — and
// every golden file recorded before the multicore model existed —
// stay byte-identical.
type LevelReport struct {
	Name          string `json:"name"`
	Accesses      int64  `json:"accesses"`
	Hits          int64  `json:"hits"`
	Misses        int64  `json:"misses"`
	Compulsory    int64  `json:"compulsory"`
	Capacity      int64  `json:"capacity"`
	Conflict      int64  `json:"conflict"`
	Coherence     int64  `json:"coherence,omitempty"`
	Fills         int64  `json:"fills"`
	PrefetchFills int64  `json:"prefetch_fills"`
}

// Heatmap carries the last-level cache's per-set counters. Index i of
// each slice is cache set i.
type Heatmap struct {
	Level     string  `json:"level"`
	Sets      int64   `json:"sets"`
	Accesses  []int64 `json:"accesses"`
	Misses    []int64 `json:"misses"`
	Conflicts []int64 `json:"conflicts"`
	Evictions []int64 `json:"evictions"`
}

// RegionReport is one labeled structure's attribution record.
// MissesByLevel is indexed by cache level; the 4C fields classify the
// region's last-level misses. Coherence and Invalidations carry
// omitempty for the same golden-stability reason as LevelReport.
type RegionReport struct {
	Label         string  `json:"label"`
	Bytes         int64   `json:"bytes"`
	Accesses      int64   `json:"accesses"`
	MissesByLevel []int64 `json:"misses_by_level"`
	Compulsory    int64   `json:"compulsory"`
	Capacity      int64   `json:"capacity"`
	Conflict      int64   `json:"conflict"`
	Coherence     int64   `json:"coherence,omitempty"`
	Invalidations int64   `json:"invalidations,omitempty"`
}

// Report snapshots the collector's state. Regions appear in
// registration order; the implicit "(other)" bucket comes last and is
// omitted when it saw no traffic.
func (c *Collector) Report() Report {
	rep := Report{}
	for _, lt := range c.levels {
		rep.Levels = append(rep.Levels, LevelReport{
			Name:          lt.name,
			Accesses:      lt.accesses,
			Hits:          lt.hits,
			Misses:        lt.misses,
			Compulsory:    lt.classes[Compulsory],
			Capacity:      lt.classes[Capacity],
			Conflict:      lt.classes[Conflict],
			Coherence:     lt.classes[Coherence],
			Fills:         lt.fills,
			PrefetchFills: lt.prefetchFills,
		})
	}
	rep.Heatmap = Heatmap{
		Level:     c.levels[len(c.levels)-1].name,
		Sets:      c.heat.sets,
		Accesses:  append([]int64(nil), c.heat.accesses...),
		Misses:    append([]int64(nil), c.heat.misses...),
		Conflicts: append([]int64(nil), c.heat.conflicts...),
		Evictions: append([]int64(nil), c.heat.evictions...),
	}
	for _, r := range c.regions.order {
		if r == c.regions.other {
			continue // appended last, below, and only if it saw traffic
		}
		rep.Regions = append(rep.Regions, regionReport(r))
	}
	if c.regions.other.accesses > 0 {
		rep.Regions = append(rep.Regions, regionReport(c.regions.other))
	}
	return rep
}

func regionReport(r *Region) RegionReport {
	return RegionReport{
		Label:         r.label,
		Bytes:         r.bytes,
		Accesses:      r.accesses,
		MissesByLevel: append([]int64(nil), r.misses...),
		Compulsory:    r.classes[Compulsory],
		Capacity:      r.classes[Capacity],
		Conflict:      r.classes[Conflict],
		Coherence:     r.classes[Coherence],
		Invalidations: r.invalidations,
	}
}

// heatRamp is the intensity scale of the ASCII heatmap, coldest
// first.
const heatRamp = " .:-=+*#%@"

// renderRow buckets vals into cols columns and maps each bucket's sum
// onto the intensity ramp, normalized to the hottest bucket.
func renderRow(vals []int64, cols int) (string, int64) {
	if cols > len(vals) {
		cols = len(vals)
	}
	buckets := make([]int64, cols)
	for i, v := range vals {
		buckets[i*cols/len(vals)] += v
	}
	var max int64
	for _, b := range buckets {
		if b > max {
			max = b
		}
	}
	var sb strings.Builder
	for _, b := range buckets {
		if max == 0 {
			sb.WriteByte(' ')
			continue
		}
		idx := int(b * int64(len(heatRamp)-1) / max)
		sb.WriteByte(heatRamp[idx])
	}
	return sb.String(), max
}

// RenderASCII renders the heatmap as one line per counter, each with
// the sets bucketed into at most cols columns (left = set 0). The
// trailing number is the hottest bucket's count, which anchors the
// relative scale.
func (h Heatmap) RenderASCII(cols int) string {
	if cols <= 0 {
		cols = 64
	}
	rows := []struct {
		name string
		vals []int64
	}{
		{"accesses", h.Accesses},
		{"misses", h.Misses},
		{"conflicts", h.Conflicts},
		{"evictions", h.Evictions},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s per-set heatmap (%d sets, %d cols, left=set 0)\n", h.Level, h.Sets, min(cols, int(h.Sets)))
	for _, r := range rows {
		line, max := renderRow(r.vals, cols)
		fmt.Fprintf(&sb, "%-9s |%s| peak %d\n", r.name, line, max)
	}
	return sb.String()
}
