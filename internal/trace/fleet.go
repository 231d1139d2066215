package trace

import (
	"encoding/json"
	"io"
	"sort"

	"pesto/internal/obs"
)

// Fleet-trace process IDs: the router's hop lane sits at 3000, each
// replica's lane at 3001+ in sorted replica-ID order — visually apart
// from the device (0+), link (1000+) and solver (2000) lanes of the
// single-process exports.
const (
	routerPID       = 3000
	replicaBasePID  = 3001
	fleetCat        = "fleet"
	fleetReplicaCat = "replica"
)

// FleetHop is one backend attempt the fleet router made on behalf of a
// traced request, on the router's clock (absolute nanoseconds): which
// replica, which failover pass, and why the attempt happened. The
// router records hops in this type and serves them as JSON.
type FleetHop struct {
	Seq       int    `json:"seq"`
	Replica   string `json:"replica"`
	Pass      int    `json:"pass"`
	Kind      string `json:"kind"` // first | retry | hedge | last-resort | warm-sync
	RequestID string `json:"requestId"`
	StartNs   int64  `json:"startNs"`
	EndNs     int64  `json:"endNs"`
	Status    int    `json:"status,omitempty"` // 0 = transport failure
	Err       string `json:"err,omitempty"`
	Served    bool   `json:"served,omitempty"` // this hop's response was returned to the client
}

// WriteChromeTraceFleet stitches one fleet trace into a Chrome Trace
// Event file: the router's hops as complete events on a "fleet router"
// process (greedily lane-packed, so a hedge racing its primary renders
// on its own line), and each replica's span dump (GET
// /v1/requests/{id}/spans, timestamps relative to the replica request's
// start) as its own process, shifted onto the router's clock by its
// hop's start time. dumps is
// indexed like hops; a nil entry (dead replica, evicted dump) just
// leaves that hop without replica-side detail. Output is deterministic
// for fixed input: hops sort by (StartNs, Seq), replicas by ID, and
// within a replica records keep dump order per hop.
func WriteChromeTraceFleet(w io.Writer, traceID string, hops []FleetHop, dumps [][]obs.SpanRecord) error {
	out := chromeFile{Metadata: map[string]string{
		"generator": "pesto fleet router",
		"traceId":   traceID,
	}}
	if len(hops) > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name",
			Cat:  "__metadata",
			Ph:   "M",
			PID:  routerPID,
			Args: map[string]any{"name": "fleet router"},
		})
	}

	// Everything is rebased so the earliest hop start is t=0: Chrome
	// trace timestamps are microsecond floats, which would lose
	// precision on absolute unix-epoch nanoseconds.
	var t0 int64
	for i, h := range hops {
		if i == 0 || h.StartNs < t0 {
			t0 = h.StartNs
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	order := make([]int, len(hops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ha, hb := hops[order[a]], hops[order[b]]
		if ha.StartNs != hb.StartNs {
			return ha.StartNs < hb.StartNs
		}
		return ha.Seq < hb.Seq
	})

	// Router lane: greedy interval partitioning, as in the solver
	// export — overlapping hops (hedges) take successive threads.
	var laneEnd []int64
	for _, i := range order {
		h := hops[i]
		end := h.EndNs
		if end < h.StartNs {
			end = h.StartNs
		}
		lane := -1
		for li, le := range laneEnd {
			if le <= h.StartNs {
				lane = li
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = end
		args := map[string]any{
			"seq":       h.Seq,
			"replica":   h.Replica,
			"pass":      h.Pass,
			"requestId": h.RequestID,
		}
		if h.Status != 0 {
			args["status"] = h.Status
		}
		if h.Err != "" {
			args["err"] = h.Err
		}
		if h.Served {
			args["served"] = true
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "hop " + h.Kind,
			Cat:  fleetCat,
			Ph:   "X",
			TsUs: us(h.StartNs - t0),
			DUs:  us(end - h.StartNs),
			PID:  routerPID,
			TID:  lane,
			Args: args,
		})
	}

	// Replica lanes: one process per distinct replica that contributed
	// a dump, in sorted ID order. Each hop's records are shifted by the
	// hop's start so everything shares the router's clock; spans get
	// the same greedy lane packing per replica.
	replicaIDs := make(map[string]bool)
	for i, h := range hops {
		if i < len(dumps) && len(dumps[i]) > 0 {
			replicaIDs[h.Replica] = true
		}
	}
	sorted := make([]string, 0, len(replicaIDs))
	for id := range replicaIDs {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	pidOf := make(map[string]int, len(sorted))
	for i, id := range sorted {
		pid := replicaBasePID + i
		pidOf[id] = pid
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name",
			Cat:  "__metadata",
			Ph:   "M",
			PID:  pid,
			Args: map[string]any{"name": "replica " + id},
		})
	}
	type placed struct {
		rec    obs.SpanRecord
		baseNs int64
		hopSeq int
	}
	byReplica := make(map[string][]placed, len(sorted))
	for i, h := range hops {
		if i >= len(dumps) {
			break
		}
		for _, rec := range dumps[i] {
			byReplica[h.Replica] = append(byReplica[h.Replica], placed{rec: rec, baseNs: h.StartNs - t0, hopSeq: h.Seq})
		}
	}
	for _, id := range sorted {
		recs := byReplica[id]
		pid := pidOf[id]
		var spans, rest []placed
		for _, p := range recs {
			if p.rec.Kind == "span" {
				spans = append(spans, p)
			} else {
				rest = append(rest, p)
			}
		}
		sort.SliceStable(spans, func(a, b int) bool {
			ta, tb := spans[a].baseNs+spans[a].rec.TsNs, spans[b].baseNs+spans[b].rec.TsNs
			if ta != tb {
				return ta < tb
			}
			return spans[a].rec.Span < spans[b].rec.Span
		})
		var laneEnd []int64
		for _, p := range spans {
			start := p.baseNs + p.rec.TsNs
			end := start + p.rec.DurNs
			lane := -1
			for li, le := range laneEnd {
				if le <= start {
					lane = li
					break
				}
			}
			if lane < 0 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = end
			args := map[string]any{"hop": p.hopSeq, "span": p.rec.Span}
			if p.rec.Parent != 0 {
				args["parent"] = p.rec.Parent
			}
			for k, v := range p.rec.Attrs {
				args[k] = v
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: p.rec.Name,
				Cat:  fleetReplicaCat,
				Ph:   "X",
				TsUs: us(start),
				DUs:  us(p.rec.DurNs),
				PID:  pid,
				TID:  lane,
				Args: args,
			})
		}
		sort.SliceStable(rest, func(a, b int) bool {
			ta, tb := rest[a].baseNs+rest[a].rec.TsNs, rest[b].baseNs+rest[b].rec.TsNs
			if ta != tb {
				return ta < tb
			}
			return rest[a].rec.Name < rest[b].rec.Name
		})
		for _, p := range rest {
			switch p.rec.Kind {
			case "sample":
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: p.rec.Name,
					Cat:  fleetReplicaCat,
					Ph:   "C",
					TsUs: us(p.baseNs + p.rec.TsNs),
					PID:  pid,
					TID:  0,
					Args: map[string]any{"value": p.rec.Value},
				})
			case "point":
				args := make(map[string]any, len(p.rec.Attrs))
				for k, v := range p.rec.Attrs {
					args[k] = v
				}
				if len(args) == 0 {
					args = nil
				}
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: p.rec.Name,
					Cat:  fleetReplicaCat,
					Ph:   "i",
					TsUs: us(p.baseNs + p.rec.TsNs),
					PID:  pid,
					TID:  0,
					S:    "p",
					Args: args,
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
