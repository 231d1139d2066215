package fleet

import (
	"sync"

	"pesto/internal/obs"
	"pesto/internal/trace"
)

// TraceRecord is the router's account of one traced request: the trace
// identity, the ring owner the first attempt targeted, and every hop
// in begin order. A hop's Seq is its position in the trace — the
// router derives the attempt's X-Request-ID from it
// (`<traceID>.h<seq>`), the key under which the serving replica
// retains the attempt's span dump.
type TraceRecord struct {
	TraceID string           `json:"traceId"`
	Owner   string           `json:"owner"`
	Method  string           `json:"method"`
	Path    string           `json:"path"`
	Hops    []trace.FleetHop `json:"hops"`
}

// liveTrace is a TraceRecord under construction. Hops begin and end on
// whatever goroutine ran the attempt (hedges race the primary), so all
// access is under the mutex; the store snapshots it the same way.
type liveTrace struct {
	mu   sync.Mutex
	rec  TraceRecord
	tc   obs.TraceContext
	next int // next hop sequence number
}

func newLiveTrace(tc obs.TraceContext, owner, method, path string) *liveTrace {
	return &liveTrace{
		rec:  TraceRecord{TraceID: tc.TraceID, Owner: owner, Method: method, Path: path},
		tc:   tc,
		next: tc.Hop,
	}
}

// beginHop registers the next attempt and returns its sequence number
// plus the trace header and request ID to send with it.
func (lt *liveTrace) beginHop(kind, replica string, pass int, startNs int64) (seq int, header, reqID string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	seq = lt.next
	lt.next++
	reqID = lt.tc.HopRequestID(seq)
	header = obs.TraceContext{TraceID: lt.tc.TraceID, Hop: seq, Parent: lt.tc.Parent}.Header()
	lt.rec.Hops = append(lt.rec.Hops, trace.FleetHop{
		Seq:       seq,
		Replica:   replica,
		Pass:      pass,
		Kind:      kind,
		RequestID: reqID,
		StartNs:   startNs,
	})
	return seq, header, reqID
}

// endHop records the attempt's outcome. status 0 with a non-empty err
// is a transport failure.
func (lt *liveTrace) endHop(seq int, endNs int64, status int, err error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for i := range lt.rec.Hops {
		if lt.rec.Hops[i].Seq == seq {
			lt.rec.Hops[i].EndNs = endNs
			lt.rec.Hops[i].Status = status
			if err != nil {
				lt.rec.Hops[i].Err = err.Error()
			}
			return
		}
	}
}

// markServed flags the hop whose response went back to the client.
func (lt *liveTrace) markServed(seq int) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for i := range lt.rec.Hops {
		lt.rec.Hops[i].Served = lt.rec.Hops[i].Seq == seq
	}
}

// snapshot copies the record (hops included) under the lock, so a
// straggling hedge ending after the request returned cannot race a
// reader.
func (lt *liveTrace) snapshot() TraceRecord {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	rec := lt.rec
	rec.Hops = make([]trace.FleetHop, len(lt.rec.Hops))
	copy(rec.Hops, lt.rec.Hops)
	return rec
}
