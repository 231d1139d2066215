package service

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// RingPoint maps a graph fingerprint onto the fleet hash ring's
// keyspace: the first 8 bytes of the (already uniformly distributed)
// SHA-256 fingerprint, big-endian. The fleet router and the cache
// export endpoint must agree on this function — it defines which
// replica owns which plans — so it lives here, next to the cache, and
// the router imports it rather than redefining it.
func RingPoint(fp [32]byte) uint64 { return binary.BigEndian.Uint64(fp[:8]) }

// CacheEntryWire is one plan-cache entry on the warm-sync wire: the
// cache key and graph fingerprint as hex, and the stored response body
// verbatim (it is already JSON, and byte-preserving transfer is what
// keeps replayed responses byte-identical across replicas).
type CacheEntryWire struct {
	Key         string          `json:"key"`
	Fingerprint string          `json:"fingerprint"`
	Body        json.RawMessage `json:"body"`
}

// CacheExport is the body of GET /v1/cache/export and
// POST /v1/cache/import.
type CacheExport struct {
	Entries []CacheEntryWire `json:"entries"`
}

// CacheImportResult reports what an import installed.
type CacheImportResult struct {
	// Installed counts entries newly added to the cache.
	Installed int `json:"installed"`
	// Skipped counts entries not installed: ones the cache already had
	// (local solves outrank synced copies), and ones a full cache
	// refused (a synced copy never evicts an entry traffic touched).
	Skipped int `json:"skipped"`
}

// handleCacheExport serves GET /v1/cache/export?lo=&hi=: the completed
// plan-cache entries whose fingerprint ring-point lies on the arc
// (lo, hi] (decimal uint64s; lo == hi means the full ring, lo > hi
// wraps through zero). The fleet router calls this on a rejoining
// replica's ring neighbors to warm-sync its keyspace before routing
// traffic to it.
func (s *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lo, err1 := strconv.ParseUint(q.Get("lo"), 10, 64)
	hi, err2 := strconv.ParseUint(q.Get("hi"), 10, 64)
	if err1 != nil || err2 != nil {
		s.reject(w, "cache_export", "", http.StatusBadRequest, "bad_request",
			fmt.Errorf("lo/hi must be decimal uint64 ring points: %w", ErrBadRequest))
		return
	}
	// Coldest first, and without touching LRU order: a peer syncing a
	// shard must not look like traffic.
	out := CacheExport{Entries: []CacheEntryWire{}}
	s.cache.plans.ColdFirst(func(key [32]byte, p cachedPlan) {
		if arcContains(lo, hi, RingPoint(p.fp)) {
			out.Entries = append(out.Entries, CacheEntryWire{
				Key:         hex.EncodeToString(key[:]),
				Fingerprint: hex.EncodeToString(p.fp[:]),
				Body:        json.RawMessage(p.body),
			})
		}
	})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
	s.met.request("cache_export", "ok")
	s.slo.observe("availability", false)
}

// handleCacheImport serves POST /v1/cache/import: bulk-install
// previously exported entries, hottest first. Existing keys, and
// entries a full cache refuses, are skipped, malformed entries are
// rejected wholesale with 400 (a warm-sync peer speaks this schema
// exactly or not at all). Every body must embed the cache
// key it is being installed under: a response produced for one key —
// say a delta plan, keyed in the delta namespace — can never be
// re-filed under another key (the cold entry it would shadow), whether
// by a buggy peer or a malicious one.
func (s *Server) handleCacheImport(w http.ResponseWriter, r *http.Request) {
	var in CacheExport
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes*4)
	if err := json.NewDecoder(body).Decode(&in); err != nil {
		s.reject(w, "cache_import", "", http.StatusBadRequest, "bad_request",
			fmt.Errorf("decode import: %v: %w", err, ErrBadRequest))
		return
	}
	// Export sends a shard coldest first and install files each entry
	// at the cold end, so install hottest first: the peer's order
	// survives, and a full cache keeps the hottest ones.
	var res CacheImportResult
	for i := len(in.Entries) - 1; i >= 0; i-- {
		e := in.Entries[i]
		key, err1 := hex32(e.Key)
		fp, err2 := hex32(e.Fingerprint)
		if err1 != nil || err2 != nil || len(e.Body) == 0 {
			s.reject(w, "cache_import", "", http.StatusBadRequest, "bad_request",
				fmt.Errorf("entry %d malformed: %w", i, ErrBadRequest))
			return
		}
		var emb struct {
			CacheKey string `json:"cacheKey"`
		}
		if err := json.Unmarshal(e.Body, &emb); err != nil || emb.CacheKey != e.Key {
			s.reject(w, "cache_import", "", http.StatusBadRequest, "bad_request",
				fmt.Errorf("entry %d: body's cacheKey does not match install key %s: %w", i, e.Key, ErrBadRequest))
			return
		}
		if s.cache.install(key, fp, []byte(e.Body)) {
			res.Installed++
		} else {
			res.Skipped++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
	s.met.request("cache_import", "ok")
	s.slo.observe("availability", false)
}

func hex32(s string) ([32]byte, error) {
	var out [32]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, err
	}
	if len(b) != 32 {
		return out, fmt.Errorf("want 32 bytes, got %d", len(b))
	}
	copy(out[:], b)
	return out, nil
}
