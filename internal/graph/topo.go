package graph

import (
	"fmt"
	"time"
)

// TopoSort returns the node IDs in a topological order computed with
// Kahn's algorithm, or ErrCycle when the graph is not a DAG.
func (g *Graph) TopoSort() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for i := range g.pred {
		indeg[i] = len(g.pred[i])
	}
	queue := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range g.succ[v] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("topological sort visited %d of %d nodes: %w", len(order), n, ErrCycle)
	}
	return order, nil
}

// CriticalPath returns the length of the longest compute-weighted path in
// the graph (ignoring communication), together with one such path. This
// is the classic lower bound on makespan with unlimited devices and free
// communication.
func (g *Graph) CriticalPath() (time.Duration, []NodeID, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, nil, err
	}
	n := len(g.nodes)
	dist := make([]time.Duration, n) // longest path ending at i, inclusive
	prev := make([]NodeID, n)
	for i := range prev {
		prev[i] = -1
	}
	var best time.Duration
	bestEnd := NodeID(-1)
	for _, v := range order {
		dist[v] += g.nodes[v].Cost
		if dist[v] > best || bestEnd == -1 {
			best = dist[v]
			bestEnd = v
		}
		for _, e := range g.succ[v] {
			if dist[v] > dist[e.To] {
				dist[e.To] = dist[v]
				prev[e.To] = v
			}
		}
	}
	var path []NodeID
	for v := bestEnd; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return best, path, nil
}

// Reachable reports whether there is a directed path from u to v
// (including the trivial path when u == v).
func (g *Graph) Reachable(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	if u == v {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succ[x] {
			if e.To == v {
				return true
			}
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}
