package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"pesto/internal/graph"
)

// oracleDecodePlaceRequest is the reflective decoder DecodePlaceRequest
// replaced — a json.Decoder over the envelope, encoding/json again for
// the graph member — kept as its differential twin. It applies the same
// rule on trailing data: nothing but whitespace may follow the value.
func oracleDecodePlaceRequest(r io.Reader, limit int64, maxNodes int) (*PlaceRequest, error) {
	if limit <= 0 {
		limit = 32 << 20
	}
	data, err := io.ReadAll(&io.LimitedReader{R: r, N: limit + 1})
	if err != nil {
		return nil, fmt.Errorf("read body: %v: %w", err, ErrBadRequest)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("body over %d bytes: %w", limit, ErrTooLarge)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var in struct {
		Graph   *oracleGraph   `json:"graph"`
		Options RequestOptions `json:"options"`
	}
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("decode request: %v: %w", err, ErrBadRequest)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("trailing data after request body: %w", ErrBadRequest)
	}
	if in.Graph == nil {
		return nil, fmt.Errorf("missing graph: %w", ErrBadRequest)
	}
	req := &PlaceRequest{Graph: in.Graph.g, Options: in.Options}
	if req.Graph.NumNodes() == 0 {
		return nil, fmt.Errorf("empty graph: %w", ErrBadRequest)
	}
	if maxNodes > 0 && req.Graph.NumNodes() > maxNodes {
		return nil, fmt.Errorf("graph has %d nodes, limit %d: %w", req.Graph.NumNodes(), maxNodes, ErrTooLarge)
	}
	return req, nil
}

// oracleGraph decodes a graph member the way graph.Graph did before its
// decoder went single-pass: encoding/json into wire structs, then the
// graph built through New, AddNode, AddEdge and Validate.
type oracleGraph struct{ g *graph.Graph }

func (o *oracleGraph) UnmarshalJSON(data []byte) error {
	var in struct {
		Nodes []struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Kind   int    `json:"kind"`
			CostNs int64  `json:"costNanos"`
			Memory int64  `json:"memoryBytes"`
			Coloc  string `json:"coloc"`
			Layer  int    `json:"layer"`
			Branch int    `json:"branch"`
		} `json:"nodes"`
		Edges []struct {
			From  int   `json:"from"`
			To    int   `json:"to"`
			Bytes int64 `json:"bytes"`
		} `json:"edges"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("decode graph: %w", err)
	}
	g := graph.New(len(in.Nodes))
	for i, n := range in.Nodes {
		if n.ID != i {
			return fmt.Errorf("decode graph: node %d has id %d", i, n.ID)
		}
		g.AddNode(graph.Node{
			Name: n.Name, Kind: graph.OpKind(n.Kind),
			Cost: time.Duration(n.CostNs), Memory: n.Memory,
			Coloc: n.Coloc, Layer: n.Layer, Branch: n.Branch,
		})
	}
	for _, e := range in.Edges {
		if err := g.AddEdge(graph.NodeID(e.From), graph.NodeID(e.To), e.Bytes); err != nil {
			return fmt.Errorf("decode graph: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("decode graph: %w", err)
	}
	o.g = g
	return nil
}
