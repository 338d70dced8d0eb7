package experiments

import (
	"fmt"
	"sort"

	"ptile360/internal/lte"
	"ptile360/internal/parallel"
	"ptile360/internal/power"
	"ptile360/internal/sim"
)

// Cell identifies one evaluation cell: a scheme streaming one video over one
// network trace.
type Cell struct {
	Scheme  sim.Scheme
	VideoID int
	// TraceID is 1 or 2 (the paper's two network conditions).
	TraceID int
}

// CellResult aggregates the per-user session results of one cell.
type CellResult struct {
	Cell
	// EnergyPerSegment is the mean Eq. 1 energy per segment in mJ.
	EnergyPerSegment float64
	// Energy breaks the per-segment energy into Tx/Decode/Render.
	Energy sim.EnergyBreakdown
	// QoE is the mean Eq. 2 session QoE.
	QoE float64
	// Q0, Variation, Rebuffer are the Fig. 11d metric means.
	Q0, Variation, Rebuffer float64
	// Stalls is the mean stall count per session.
	Stalls float64
	// MeanQuality and MeanFrameRate are the average chosen versions.
	MeanQuality, MeanFrameRate float64
	// Users is the number of evaluation sessions aggregated.
	Users int
}

// Comparison is the full Figs. 9–11 evaluation for one phone.
type Comparison struct {
	Phone power.Phone
	Cells []CellResult
}

// RunComparison streams every (scheme, video, trace, user) combination at
// the given scale on the given phone. Per-video setups are memoized and
// built concurrently (setupcache.go); the individual sessions then run on a
// bounded worker pool with one job per (cell, user). Results are
// deterministic regardless of worker count and scheduling: each session is a
// pure function of its inputs, and per-cell aggregation always sums users in
// evaluation order.
//
// The comparison itself is memoized per (phone, scale), so the figures that
// share one (Figs. 9 and 11, Robustness's first seed) stream it once. The
// returned comparison is shared: callers must treat it as read-only.
func RunComparison(phone power.Phone, scale Scale) (*Comparison, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	return comparisonFor(phone, scale)
}

// buildComparison is RunComparison without the memo.
func buildComparison(phone power.Phone, scale Scale) (*Comparison, error) {
	trace1, trace2, err := standardTraces(scale)
	if err != nil {
		return nil, err
	}
	traces := [2]*lte.Trace{trace1, trace2}

	// Build (or fetch from cache) every video setup up front; distinct
	// videos build concurrently, and concurrent figures requesting the same
	// video share one build through the cache's singleflight.
	setups := make([]*sim.Video, len(scale.Videos))
	if err := parallel.ForEach(len(scale.Videos), maxWorkers(), func(i int) error {
		s, err := setupVideo(scale.Videos[i], scale)
		if err != nil {
			return err
		}
		setups[i] = s
		return nil
	}); err != nil {
		return nil, err
	}

	type cellJob struct {
		cell  Cell
		setup *sim.Video
		net   *lte.Trace
		cfg   sim.Config
	}
	var cells []cellJob
	for vi, id := range scale.Videos {
		for traceID := 1; traceID <= 2; traceID++ {
			for _, scheme := range sim.Schemes() {
				cfg, err := sim.DefaultConfig(scheme, phone)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cellJob{
					cell:  Cell{Scheme: scheme, VideoID: id, TraceID: traceID},
					setup: setups[vi],
					net:   traces[traceID-1],
					cfg:   cfg,
				})
			}
		}
	}

	sessions, err := sweep(len(cells), scale.EvalUsers, func(c, u int) (*sim.Result, error) {
		job := cells[c]
		user := job.setup.Eval[u]
		r, err := sim.Run(job.setup.Catalog, user, job.net, job.cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v video %d trace %d user %d: %w",
				job.cell.Scheme, job.cell.VideoID, job.cell.TraceID, user.UserID, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	results := make([]CellResult, len(cells))
	for ci, c := range cells {
		results[ci] = aggregateCell(c.cell, sessions[ci])
	}

	sort.Slice(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if a.VideoID != b.VideoID {
			return a.VideoID < b.VideoID
		}
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		return a.Scheme < b.Scheme
	})
	return &Comparison{Phone: phone, Cells: results}, nil
}

// aggregateCell folds the per-user session results of one cell into its
// means, summing in user order so the floating-point result is independent
// of how the sessions were scheduled.
func aggregateCell(cell Cell, userResults []*sim.Result) CellResult {
	out := CellResult{Cell: cell}
	for _, r := range userResults {
		segs := float64(r.Segments)
		out.EnergyPerSegment += r.Energy.Total() / segs
		out.Energy.Tx += r.Energy.Tx / segs
		out.Energy.Decode += r.Energy.Decode / segs
		out.Energy.Render += r.Energy.Render / segs
		out.QoE += r.QoE.MeanQ
		out.Q0 += r.QoE.MeanQ0
		out.Variation += r.QoE.MeanVariation
		out.Rebuffer += r.QoE.MeanRebuffer
		out.Stalls += float64(r.QoE.Stalls)
		out.MeanQuality += r.MeanQuality
		out.MeanFrameRate += r.MeanFrameRate
		out.Users++
	}
	n := float64(out.Users)
	out.EnergyPerSegment /= n
	out.Energy.Tx /= n
	out.Energy.Decode /= n
	out.Energy.Render /= n
	out.QoE /= n
	out.Q0 /= n
	out.Variation /= n
	out.Rebuffer /= n
	out.Stalls /= n
	out.MeanQuality /= n
	out.MeanFrameRate /= n
	return out
}

// cellFor returns the cell result for the given key, or nil.
func (c *Comparison) cellFor(scheme sim.Scheme, videoID, traceID int) *CellResult {
	for i := range c.Cells {
		cr := &c.Cells[i]
		if cr.Scheme == scheme && cr.VideoID == videoID && cr.TraceID == traceID {
			return cr
		}
	}
	return nil
}

// NormalizedEnergy returns the mean per-scheme energy normalized to Ctile,
// averaged over videos, for the given trace (Fig. 9c / Fig. 10 bars).
func (c *Comparison) NormalizedEnergy(traceID int) map[sim.Scheme]float64 {
	return c.normalized(traceID, func(r *CellResult) float64 { return r.EnergyPerSegment })
}

// NormalizedQoE returns the mean per-scheme QoE normalized to Ctile,
// averaged over videos, for the given trace (Fig. 11c bars).
func (c *Comparison) NormalizedQoE(traceID int) map[sim.Scheme]float64 {
	return c.normalized(traceID, func(r *CellResult) float64 { return r.QoE })
}

// normalized averages metric(scheme)/metric(Ctile) over videos, summing in
// ascending video ID so the result is the same on every call.
func (c *Comparison) normalized(traceID int, metric func(*CellResult) float64) map[sim.Scheme]float64 {
	videos := c.videoIDs()
	out := make(map[sim.Scheme]float64, len(sim.Schemes()))
	for _, scheme := range sim.Schemes() {
		var sum float64
		var n int
		for _, id := range videos {
			base := c.cellFor(sim.SchemeCtile, id, traceID)
			cell := c.cellFor(scheme, id, traceID)
			if base == nil || cell == nil || metric(base) == 0 {
				continue
			}
			sum += metric(cell) / metric(base)
			n++
		}
		if n > 0 {
			out[scheme] = sum / float64(n)
		}
	}
	return out
}

// RenderEnergy formats the Fig. 9 (or Fig. 10 for other phones) energy
// comparison: per-video detail plus normalized bars.
func (c *Comparison) RenderEnergy() []Table {
	detail := Table{
		Title:   fmt.Sprintf("Fig. 9a/9b: energy per segment (mJ), %v", c.Phone),
		Columns: []string{"Video", "Trace", "Ctile", "Ftile", "Nontile", "Ptile", "Ours"},
	}
	videos := c.videoIDs()
	for _, id := range videos {
		for traceID := 1; traceID <= 2; traceID++ {
			row := []string{fmt.Sprintf("%d", id), fmt.Sprintf("%d", traceID)}
			for _, scheme := range sim.Schemes() {
				if cell := c.cellFor(scheme, id, traceID); cell != nil {
					row = append(row, fmt.Sprintf("%.0f", cell.EnergyPerSegment))
				} else {
					row = append(row, "-")
				}
			}
			detail.Rows = append(detail.Rows, row)
		}
	}

	norm := Table{
		Title:   fmt.Sprintf("Fig. 9c: normalized energy, %v (paper: Ptile 0.70, Ours 0.50 vs Ctile)", c.Phone),
		Columns: []string{"Trace", "Ctile", "Ftile", "Nontile", "Ptile", "Ours"},
	}
	for traceID := 1; traceID <= 2; traceID++ {
		ne := c.NormalizedEnergy(traceID)
		row := []string{fmt.Sprintf("%d", traceID)}
		for _, scheme := range sim.Schemes() {
			row = append(row, fmt.Sprintf("%.2f", ne[scheme]))
		}
		norm.Rows = append(norm.Rows, row)
	}

	breakdown := Table{
		Title:   fmt.Sprintf("Fig. 9d: energy breakdown, video 8 trace 2 (mJ/segment), %v", c.Phone),
		Columns: []string{"Scheme", "Tx", "Decode", "Render"},
	}
	for _, scheme := range sim.Schemes() {
		if cell := c.cellFor(scheme, 8, 2); cell != nil {
			breakdown.Rows = append(breakdown.Rows, []string{
				scheme.String(),
				fmt.Sprintf("%.0f", cell.Energy.Tx),
				fmt.Sprintf("%.0f", cell.Energy.Decode),
				fmt.Sprintf("%.0f", cell.Energy.Render),
			})
		}
	}
	tables := []Table{detail, norm}
	if len(breakdown.Rows) > 0 {
		tables = append(tables, breakdown)
	}
	return tables
}

// RenderQoE formats the Fig. 11 QoE comparison.
func (c *Comparison) RenderQoE() []Table {
	detail := Table{
		Title:   fmt.Sprintf("Fig. 11a/11b: session QoE, %v", c.Phone),
		Columns: []string{"Video", "Trace", "Ctile", "Ftile", "Nontile", "Ptile", "Ours"},
	}
	for _, id := range c.videoIDs() {
		for traceID := 1; traceID <= 2; traceID++ {
			row := []string{fmt.Sprintf("%d", id), fmt.Sprintf("%d", traceID)}
			for _, scheme := range sim.Schemes() {
				if cell := c.cellFor(scheme, id, traceID); cell != nil {
					row = append(row, fmt.Sprintf("%.1f", cell.QoE))
				} else {
					row = append(row, "-")
				}
			}
			detail.Rows = append(detail.Rows, row)
		}
	}

	norm := Table{
		Title:   fmt.Sprintf("Fig. 11c: normalized QoE, %v (paper: Ours +7.4%% trace 1, +18.4%% trace 2)", c.Phone),
		Columns: []string{"Trace", "Ctile", "Ftile", "Nontile", "Ptile", "Ours"},
	}
	for traceID := 1; traceID <= 2; traceID++ {
		nq := c.NormalizedQoE(traceID)
		row := []string{fmt.Sprintf("%d", traceID)}
		for _, scheme := range sim.Schemes() {
			row = append(row, fmt.Sprintf("%.2f", nq[scheme]))
		}
		norm.Rows = append(norm.Rows, row)
	}

	breakdown := Table{
		Title:   fmt.Sprintf("Fig. 11d: QoE metrics, video 8 trace 2, %v", c.Phone),
		Columns: []string{"Scheme", "Avg quality Q0", "Variation Iv", "Rebuffer Ir", "Stalls"},
	}
	for _, scheme := range sim.Schemes() {
		if cell := c.cellFor(scheme, 8, 2); cell != nil {
			breakdown.Rows = append(breakdown.Rows, []string{
				scheme.String(),
				fmt.Sprintf("%.1f", cell.Q0),
				fmt.Sprintf("%.1f", cell.Variation),
				fmt.Sprintf("%.1f", cell.Rebuffer),
				fmt.Sprintf("%.1f", cell.Stalls),
			})
		}
	}
	tables := []Table{detail, norm}
	if len(breakdown.Rows) > 0 {
		tables = append(tables, breakdown)
	}
	return tables
}

func (c *Comparison) videoIDs() []int {
	set := map[int]bool{}
	for _, cell := range c.Cells {
		set[cell.VideoID] = true
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
