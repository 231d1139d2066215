package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"slices"
)

// fingerprintVersion is folded into every fingerprint so the hash
// changes whenever the canonical serialization below does — a cached
// plan keyed by an old layout can never be served against a new one.
const fingerprintVersion = "pesto/graph-fingerprint/v1\n"

// Fingerprint returns a SHA-256 content address of the graph's
// placement-relevant content. Two graphs share a fingerprint exactly
// when every input the placement pipeline consumes is equal: node
// count, and per node (in ID order) the kind, compute cost, memory
// footprint, colocation group, layer and branch indices; plus the edge
// set with its tensor sizes.
//
// The serialization is canonical:
//
//   - Clone()d graphs hash identically (the hash reads only node and
//     edge values, never slice capacities or addresses).
//   - Edge-insertion order is irrelevant: edges are hashed sorted by
//     (From, To). Node order is NOT normalized away — AddNode order
//     defines the dense NodeIDs that plans index by, so two graphs
//     built in different node orders are semantically different even
//     when isomorphic.
//   - Node names are excluded: they label operations for humans and
//     never reach a placement decision, so renaming a graph keeps its
//     plans (and cache entries) valid.
//
// The fingerprint is the cache key of the plan-serving layer
// (internal/service); JSON round-trips preserve it because the codec
// carries every hashed field.
func (g *Graph) Fingerprint() [32]byte {
	w := fpWriter{h: sha256.New()}
	w.str(fingerprintVersion)
	w.u64(uint64(len(g.nodes)))
	for i := range g.nodes {
		n := &g.nodes[i]
		w.u64(uint64(n.Kind))
		w.u64(uint64(n.Cost))
		w.u64(uint64(n.Memory))
		w.u64(uint64(len(n.Coloc)))
		w.str(n.Coloc)
		w.u64(uint64(int64(n.Layer)))
		w.u64(uint64(int64(n.Branch)))
	}
	edges := g.Edges()
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	w.u64(uint64(len(edges)))
	for _, e := range edges {
		w.u64(uint64(e.From))
		w.u64(uint64(e.To))
		w.u64(uint64(e.Bytes))
	}
	return w.sum()
}

// fpWriter feeds the hash through one fixed buffer, so a fingerprint
// costs one allocation for the buffer instead of one per field written
// through the hash.Hash interface.
type fpWriter struct {
	h   hash.Hash
	buf [512]byte
	n   int
}

func (w *fpWriter) u64(v uint64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

func (w *fpWriter) str(s string) {
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *fpWriter) sum() [32]byte {
	w.flush()
	var out [32]byte
	w.h.Sum(out[:0])
	return out
}
