package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"pesto/internal/jsonlex"
)

// jsonNode is the serialized form of a Node. Durations are nanoseconds
// and all fields carry explicit tags: the serialized graph is a
// contract (plans reference nodes by ID).
type jsonNode struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Kind   int    `json:"kind"`
	CostNs int64  `json:"costNanos"`
	Memory int64  `json:"memoryBytes"`
	Coloc  string `json:"coloc,omitempty"`
	Layer  int    `json:"layer"`
	Branch int    `json:"branch,omitempty"`
}

type jsonEdge struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Bytes int64 `json:"bytes"`
}

type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

// The members the decoder stores, matching the tags above; any other
// member is validated and skipped, as encoding/json skips fields a
// struct does not have.
var (
	graphFields = []string{"nodes", "edges"}
	nodeFields  = []string{"id", "name", "kind", "costNanos", "memoryBytes", "coloc", "layer", "branch"}
	edgeFields  = []string{"from", "to", "bytes"}
)

// MarshalJSON serializes the graph with stable node IDs.
func (g *Graph) MarshalJSON() ([]byte, error) {
	out := jsonGraph{
		Nodes: make([]jsonNode, 0, g.NumNodes()),
		Edges: make([]jsonEdge, 0, g.NumEdges()),
	}
	for _, n := range g.nodes {
		out.Nodes = append(out.Nodes, jsonNode{
			ID: int(n.ID), Name: n.Name, Kind: int(n.Kind),
			CostNs: n.Cost.Nanoseconds(), Memory: n.Memory,
			Coloc: n.Coloc, Layer: n.Layer, Branch: n.Branch,
		})
	}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, jsonEdge{From: int(e.From), To: int(e.To), Bytes: e.Bytes})
	}
	return json.Marshal(out)
}

// UnmarshalJSON replaces the receiver's contents with the serialized
// graph, validating IDs, edges and acyclicity.
func (g *Graph) UnmarshalJSON(data []byte) error {
	fresh, err := decodeDocument(data)
	if err != nil {
		return err
	}
	*g = *fresh
	return nil
}

// WriteJSON writes the graph to w.
func (g *Graph) WriteJSON(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadJSON parses a graph from r.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeDocument(data)
}

// DecodeJSON decodes the graph value at the lexer's position, leaving
// the lexer after it, so a graph embedded in a larger document is
// decoded in the same pass as the document. A null value is the empty
// graph.
func DecodeJSON(lx *jsonlex.Lexer) (*Graph, error) {
	var in jsonGraph
	if err := in.decode(lx); err != nil {
		return nil, fmt.Errorf("decode graph: %w", err)
	}
	return in.build()
}

// decodeDocument decodes data holding exactly one graph value.
func decodeDocument(data []byte) (*Graph, error) {
	lx := jsonlex.New(data)
	g, err := DecodeJSON(lx)
	if err != nil {
		return nil, err
	}
	if err := lx.End(); err != nil {
		return nil, fmt.Errorf("decode graph: %w", err)
	}
	return g, nil
}

func (in *jsonGraph) decode(lx *jsonlex.Lexer) error {
	if lx.Null() {
		return nil
	}
	return lx.Object(func(key []byte) error {
		switch jsonlex.Field(key, graphFields) {
		case "nodes":
			return decodeSlice(lx, &in.Nodes, (*jsonNode).decode)
		case "edges":
			return decodeSlice(lx, &in.Edges, (*jsonEdge).decode)
		}
		return lx.Skip()
	})
}

// decodeSlice decodes an array into *s the way encoding/json fills a
// slice: element i decodes in place over what *s already holds there,
// up to its capacity, so a repeated member updates the elements the
// previous one left; the slice is then cut to the array's length, and
// null or [] empties it.
func decodeSlice[T any](lx *jsonlex.Lexer, s *[]T, decode func(*T, *jsonlex.Lexer) error) error {
	if lx.Null() {
		*s = nil
		return nil
	}
	n := 0
	err := lx.Array(func() error {
		if n == len(*s) {
			if n < cap(*s) {
				*s = (*s)[:n+1]
			} else {
				var zero T
				*s = append(*s, zero)
			}
		}
		n++
		return decode(&(*s)[n-1], lx)
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*s = nil
	} else {
		*s = (*s)[:n]
	}
	return nil
}

func (n *jsonNode) decode(lx *jsonlex.Lexer) error {
	if lx.Null() {
		return nil
	}
	return lx.Object(func(key []byte) error {
		switch jsonlex.Field(key, nodeFields) {
		case "id":
			return lx.DecodeInt(&n.ID)
		case "name":
			return lx.DecodeString(&n.Name)
		case "kind":
			return lx.DecodeInt(&n.Kind)
		case "costNanos":
			return lx.DecodeInt64(&n.CostNs)
		case "memoryBytes":
			return lx.DecodeInt64(&n.Memory)
		case "coloc":
			return lx.DecodeString(&n.Coloc)
		case "layer":
			return lx.DecodeInt(&n.Layer)
		case "branch":
			return lx.DecodeInt(&n.Branch)
		}
		return lx.Skip()
	})
}

func (e *jsonEdge) decode(lx *jsonlex.Lexer) error {
	if lx.Null() {
		return nil
	}
	return lx.Object(func(key []byte) error {
		switch jsonlex.Field(key, edgeFields) {
		case "from":
			return lx.DecodeInt(&e.From)
		case "to":
			return lx.DecodeInt(&e.To)
		case "bytes":
			return lx.DecodeInt64(&e.Bytes)
		}
		return lx.Skip()
	})
}

// build constructs the graph through New, AddNode, AddEdge and
// Validate, so a decoded graph passes every check a built one does.
func (in *jsonGraph) build() (*Graph, error) {
	n := len(in.Nodes)
	g := New(n)
	for i, node := range in.Nodes {
		if node.ID != i {
			return nil, fmt.Errorf("decode graph: node %d has id %d (ids must be dense and ordered)", i, node.ID)
		}
		g.AddNode(Node{
			Name: node.Name, Kind: OpKind(node.Kind),
			Cost: time.Duration(node.CostNs), Memory: node.Memory,
			Coloc: node.Coloc, Layer: node.Layer, Branch: node.Branch,
		})
	}
	// Carve the adjacency lists from one array sized from the edge
	// list, so AddEdge appends in place instead of growing every list.
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range in.Edges {
		if g.valid(NodeID(e.From)) && g.valid(NodeID(e.To)) {
			deg[e.From]++
			deg[n+e.To]++
		}
	}
	adj := make([]Edge, 2*len(in.Edges))
	for i, d := range deg {
		if d == 0 {
			continue
		}
		if i < n {
			g.succ[i] = adj[:0:d]
		} else {
			g.pred[i-n] = adj[:0:d]
		}
		adj = adj[d:]
	}
	for _, e := range in.Edges {
		if err := g.AddEdge(NodeID(e.From), NodeID(e.To), e.Bytes); err != nil {
			return nil, fmt.Errorf("decode graph: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("decode graph: %w", err)
	}
	return g, nil
}
