// Package trace renders simulated training-step timelines as text
// Gantt charts — the visualization behind the paper's Figure 5, which
// contrasts bunched inter-GPU transfers (congestion constraints off)
// against staggered ones (constraints on).
//
// A chart has one lane per device plus one lane per active directional
// link. Device lanes show busy intervals; link lanes distinguish
// serving ('#') from queueing ('·'), so congestion is visible at a
// glance.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pesto/internal/graph"
	"pesto/internal/sim"
)

const (
	// ganttWidth is the number of character columns for the time axis.
	ganttWidth = 96
	// maxLanes bounds the number of lanes printed.
	maxLanes = 16
)

// interval is a [from, to) busy span with a fill rune.
type interval struct {
	from, to time.Duration
	fill     byte
}

// lane is one horizontal band of the chart.
type lane struct {
	name      string
	intervals []interval
}

// Gantt renders the timeline of a simulation result.
func Gantt(w io.Writer, g *graph.Graph, sys sim.System, plan sim.Plan, res sim.Result) error {
	if res.Makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty timeline)")
		return err
	}

	lanes := buildLanes(g, sys, plan, res)
	if len(lanes) > maxLanes {
		lanes = lanes[:maxLanes]
	}

	scale := float64(ganttWidth) / float64(res.Makespan)
	col := func(t time.Duration) int {
		c := int(float64(t) * scale)
		if c >= ganttWidth {
			c = ganttWidth - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}

	nameWidth := 0
	for _, l := range lanes {
		if len(l.name) > nameWidth {
			nameWidth = len(l.name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  0%s%v\n", nameWidth, "", strings.Repeat(" ", ganttWidth-len(res.Makespan.String())), res.Makespan)
	for _, l := range lanes {
		row := make([]byte, ganttWidth)
		for i := range row {
			row[i] = ' '
		}
		for _, iv := range l.intervals {
			lo, hi := col(iv.from), col(iv.to)
			if hi < lo {
				hi = lo
			}
			for c := lo; c <= hi && c < ganttWidth; c++ {
				row[c] = iv.fill
			}
		}
		fmt.Fprintf(&b, "%*s |%s|\n", nameWidth, l.name, row)
	}
	b.WriteString("legend: '#' busy/serving, '·' queued transfer\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// buildLanes assembles device and link lanes from a result.
func buildLanes(g *graph.Graph, sys sim.System, plan sim.Plan, res sim.Result) []lane {
	var lanes []lane
	for _, d := range sys.Devices {
		l := lane{name: d.Name}
		for i := 0; i < g.NumNodes(); i++ {
			id := graph.NodeID(i)
			if plan.Device[id] != d.ID || res.Start[id] < 0 {
				continue
			}
			l.intervals = append(l.intervals, interval{from: res.Start[id], to: res.Finish[id], fill: '#'})
		}
		sortIntervals(l.intervals)
		lanes = append(lanes, l)
	}
	byLink := map[[2]sim.DeviceID][]sim.TransferEvent{}
	for _, tr := range res.Transfers {
		k := [2]sim.DeviceID{tr.From, tr.To}
		byLink[k] = append(byLink[k], tr)
	}
	keys := make([][2]sim.DeviceID, 0, len(byLink))
	for k := range byLink {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		from, _ := sys.Device(k[0])
		to, _ := sys.Device(k[1])
		l := lane{name: fmt.Sprintf("%s→%s", from.Name, to.Name)}
		for _, tr := range byLink[k] {
			if q := tr.Queued(); q > 0 {
				l.intervals = append(l.intervals, interval{from: tr.Enqueue, to: tr.Start, fill: '.'})
			}
			l.intervals = append(l.intervals, interval{from: tr.Start, to: tr.Finish, fill: '#'})
		}
		sortIntervals(l.intervals)
		lanes = append(lanes, l)
	}
	return lanes
}

func sortIntervals(ivs []interval) {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
}
