package graph

import (
	"encoding/json"
	"fmt"
)

// OracleReadJSON is the reflective encoding/json decoder that the
// single-pass one replaced, kept as its differential twin: FuzzGraphJSON
// holds the two to the same accept set and the same graphs.
func OracleReadJSON(data []byte) (*Graph, error) {
	var in jsonGraph
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("decode graph: %w", err)
	}
	return in.build()
}
