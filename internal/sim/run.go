package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pesto/internal/graph"
)

// TransferEvent records one inter-device tensor transfer for timeline
// analysis (the Figure 5 Gantt charts).
type TransferEvent struct {
	Edge     graph.Edge
	From, To DeviceID
	Enqueue  time.Duration // when the producer finished
	Start    time.Duration // when the FCFS link began serving it
	Finish   time.Duration
}

// Queued reports how long the transfer waited behind others on its link
// — the congestion Pesto's ILP constraints stagger away.
func (t TransferEvent) Queued() time.Duration { return t.Start - t.Enqueue }

// Result is the outcome of simulating one training step.
type Result struct {
	// Makespan is the per-step training time C_max.
	Makespan time.Duration
	// Start and Finish give per-node execution windows.
	Start, Finish []time.Duration
	// DeviceBusy is the total compute time per device.
	DeviceBusy []time.Duration
	// Transfers lists every inter-device transfer in link-service
	// order.
	Transfers []TransferEvent
	// LinkBusy is the total service time per directional link.
	LinkBusy map[[2]DeviceID]time.Duration
}

// Utilization reports DeviceBusy/Makespan for a device.
func (r Result) Utilization(d DeviceID) float64 {
	if r.Makespan <= 0 || int(d) >= len(r.DeviceBusy) {
		return 0
	}
	return float64(r.DeviceBusy[d]) / float64(r.Makespan)
}

// MaxQueueing returns the largest per-transfer queueing delay observed.
func (r Result) MaxQueueing() time.Duration {
	var m time.Duration
	for _, t := range r.Transfers {
		if q := t.Queued(); q > m {
			m = q
		}
	}
	return m
}

type eventKind uint8

const (
	evOpDone eventKind = iota + 1
	evTransferDone
)

// event is one pending completion: the op that finished (evOpDone), or
// the consumer whose input tensor arrived (evTransferDone).
type event struct {
	t    time.Duration
	seq  int
	node graph.NodeID
	kind eventKind
}

func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (t, seq). seq is
// unique, so the order is strict and total and the pop sequence depends
// only on the events pushed, not on the heap's layout.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].before(q[m]) {
			m = r
		}
		if !q[m].before(q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

type readyOp struct {
	id      graph.NodeID
	readyAt time.Duration
}

type deviceState struct {
	running  graph.NodeID // -1 when idle
	orderPos int          // cursor into Plan.Order for strict schedules
	ready    []readyOp    // ready set for policy scheduling
}

// linkState is one directional FCFS link: when it next falls free, its
// total service time, and whether any transfer used it.
type linkState struct {
	free, busy time.Duration
	used       bool
}

// scratch is the per-run working state that never escapes into a
// Result. Runs borrow it from scratchPool, so a warm Run allocates only
// its Result.
type scratch struct {
	pendingDeps []int
	readyAt     []time.Duration // max over dep-arrival times
	events      eventHeap
	devs        []deviceState
	links       []linkState // indexed from*len(devs)+to
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// zeroed returns s resized to n zero elements, reusing its storage when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (s *scratch) reset(nodes, devices int) {
	s.pendingDeps = zeroed(s.pendingDeps, nodes)
	s.readyAt = zeroed(s.readyAt, nodes)
	s.events = s.events[:0]
	s.links = zeroed(s.links, devices*devices)
	if cap(s.devs) < devices {
		s.devs = make([]deviceState, devices)
	}
	s.devs = s.devs[:devices]
	for i := range s.devs {
		s.devs[i] = deviceState{running: -1, ready: s.devs[i].ready[:0]}
	}
}

// simulation is one Run in flight: its inputs, the Result being filled
// in, and the borrowed scratch.
type simulation struct {
	*scratch
	g        *graph.Graph
	sys      System
	plan     Plan
	inj      Injector
	policy   SchedulePolicy
	rng      *rand.Rand // PolicyRandom only
	res      Result
	seq      int
	executed int

	// Fault-injection state: the first injected fault (mid-run OOM or
	// device failure) aborts the run. memStarted tracks the cumulative
	// footprint of operations started per device, compared against the
	// injector's (possibly shrinking) effective capacity.
	injErr     error
	memStarted []int64
}

// Run simulates one training step of g on sys under plan. It validates
// the plan and the memory constraints first, returning ErrOOM when a
// device's cumulative footprint exceeds its capacity.
//
// Run is re-entrant: all simulation state (event heap, device states,
// link queues, the PolicyRandom RNG) is private to the call, and g, sys
// and plan are only read, never written. Concurrent Runs may therefore
// share all three, which is what lets the placement engine evaluate
// many candidate plans in parallel against one graph and system. The
// caller must only guarantee that nothing mutates g, sys or plan while
// Runs are in flight (use Plan.Clone/System.Clone to mutate copies).
func Run(g *graph.Graph, sys System, plan Plan) (Result, error) {
	return run(g, sys, plan, nil)
}

// run is the shared core of Run and RunInjected.
func run(g *graph.Graph, sys System, plan Plan, inj Injector) (Result, error) {
	if err := plan.Validate(g, sys); err != nil {
		return Result{}, err
	}
	if err := plan.CheckMemory(g, sys); err != nil {
		return Result{}, err
	}
	n, nd := g.NumNodes(), len(sys.Devices)
	s := simulation{scratch: scratchPool.Get().(*scratch), g: g, sys: sys, plan: plan, inj: inj, policy: plan.Policy}
	defer scratchPool.Put(s.scratch)
	s.reset(n, nd)
	if s.policy == 0 {
		s.policy = PolicyFIFO
	}
	if s.policy == PolicyRandom {
		s.rng = rand.New(rand.NewSource(plan.Seed))
	}
	if inj != nil {
		s.memStarted = make([]int64, nd)
	}
	s.res = Result{
		Start:      make([]time.Duration, n),
		Finish:     make([]time.Duration, n),
		DeviceBusy: make([]time.Duration, nd),
		LinkBusy:   make(map[[2]DeviceID]time.Duration),
	}
	// Every cross-device edge becomes exactly one transfer, so Transfers
	// is sized once.
	crossing := 0
	for i := 0; i < n; i++ {
		s.res.Start[i], s.res.Finish[i] = -1, -1
		s.pendingDeps[i] = g.InDegree(graph.NodeID(i))
		for _, e := range g.Succ(graph.NodeID(i)) {
			if plan.Device[e.To] != plan.Device[i] {
				crossing++
			}
		}
	}
	if crossing > 0 {
		s.res.Transfers = make([]TransferEvent, 0, crossing)
	}

	// Seed the roots.
	for i := 0; i < n; i++ {
		if s.pendingDeps[i] == 0 {
			s.markReady(graph.NodeID(i), 0)
		}
	}
	for d := range s.devs {
		s.dispatch(DeviceID(d), 0)
	}

	var now time.Duration
	for len(s.events) > 0 && s.injErr == nil {
		ev := s.events.pop()
		now = ev.t
		switch ev.kind {
		case evOpDone:
			s.opDone(ev.node, now)
		case evTransferDone:
			s.depSatisfied(ev.node, now)
		}
	}

	res := s.res
	for i, l := range s.links {
		if l.used {
			res.LinkBusy[[2]DeviceID{DeviceID(i / nd), DeviceID(i % nd)}] = l.busy
		}
	}
	if s.injErr != nil {
		return res, s.injErr
	}
	if s.executed != n {
		return res, fmt.Errorf("simulation deadlocked: executed %d of %d operations (invalid schedule order?): %w", s.executed, n, ErrBadPlacement)
	}
	res.Makespan = now
	sort.Slice(res.Transfers, func(i, j int) bool {
		if res.Transfers[i].Start != res.Transfers[j].Start {
			return res.Transfers[i].Start < res.Transfers[j].Start
		}
		return res.Transfers[i].Finish < res.Transfers[j].Finish
	})
	return res, nil
}

func (s *simulation) push(t time.Duration, kind eventKind, node graph.NodeID) {
	s.events.push(event{t: t, seq: s.seq, node: node, kind: kind})
	s.seq++
}

func (s *simulation) markReady(id graph.NodeID, now time.Duration) {
	d := &s.devs[s.plan.Device[id]]
	d.ready = append(d.ready, readyOp{id: id, readyAt: now})
}

// pickReady removes and returns the next op for a policy-scheduled
// device, or -1 when none is ready.
func (s *simulation) pickReady(d *deviceState) graph.NodeID {
	if len(d.ready) == 0 {
		return -1
	}
	idx := 0
	switch s.policy {
	case PolicyFIFO:
		for i := 1; i < len(d.ready); i++ {
			a, b := d.ready[i], d.ready[idx]
			if a.readyAt < b.readyAt || (a.readyAt == b.readyAt && a.id < b.id) {
				idx = i
			}
		}
	case PolicyRandom:
		idx = s.rng.Intn(len(d.ready))
	case PolicyPriority:
		for i := 1; i < len(d.ready); i++ {
			a, b := d.ready[i], d.ready[idx]
			pa, pb := s.plan.Priority[a.id], s.plan.Priority[b.id]
			if pa > pb || (pa == pb && a.id < b.id) {
				idx = i
			}
		}
	}
	id := d.ready[idx].id
	d.ready = append(d.ready[:idx], d.ready[idx+1:]...)
	return id
}

func (s *simulation) startOp(devID DeviceID, id graph.NodeID, now time.Duration) {
	dev := &s.sys.Devices[devID]
	nd, _ := s.g.Node(id)
	speed := dev.Speed
	if speed <= 0 {
		speed = 1
	}
	dur := time.Duration(math.Round(float64(nd.Cost) / speed))
	if s.inj != nil {
		dur = s.inj.OpDuration(id, devID, now, dur)
		if dur < 0 {
			dur = 0
		}
		if ft, ok := s.inj.FailureTime(devID); ok && now+dur >= ft {
			// The op would start on, or still be running on, a dead
			// device.
			s.injErr = &DeviceFailedError{Device: devID, At: ft}
			return
		}
		if dev.Memory > 0 {
			capNow := s.inj.DeviceCapacity(devID, now, dev.Memory)
			if s.memStarted[devID]+nd.Memory > capNow {
				s.injErr = fmt.Errorf("device %s needs %d of %d effective bytes at %v: %w",
					dev.Name, s.memStarted[devID]+nd.Memory, capNow, now, ErrOOM)
				return
			}
		}
		s.memStarted[devID] += nd.Memory
	}
	s.devs[devID].running = id
	s.res.Start[id] = now
	s.res.DeviceBusy[devID] += dur
	s.push(now+dur, evOpDone, id)
}

// dispatch tries to start work on a device at the given time.
func (s *simulation) dispatch(devID DeviceID, now time.Duration) {
	d := &s.devs[devID]
	if d.running >= 0 {
		return
	}
	if order := s.plan.Order; order != nil && int(devID) < len(order) && order[devID] != nil {
		if d.orderPos >= len(order[devID]) {
			return
		}
		next := order[devID][d.orderPos]
		if s.pendingDeps[next] > 0 || s.readyAt[next] > now {
			return // strict schedule: wait for the designated op
		}
		d.orderPos++
		s.startOp(devID, next, now)
		return
	}
	if id := s.pickReady(d); id >= 0 {
		s.startOp(devID, id, now)
	}
}

// depSatisfied records the arrival of one dependency of id at time t.
func (s *simulation) depSatisfied(id graph.NodeID, t time.Duration) {
	if t > s.readyAt[id] {
		s.readyAt[id] = t
	}
	s.pendingDeps[id]--
	if s.pendingDeps[id] == 0 {
		s.markReady(id, s.readyAt[id])
		s.dispatch(s.plan.Device[id], s.readyAt[id])
	}
}

// opDone completes id on its device and fans out: colocated successors
// are satisfied now; remote ones enqueue a transfer on the FCFS link.
func (s *simulation) opDone(id graph.NodeID, now time.Duration) {
	devID := s.plan.Device[id]
	s.devs[devID].running = -1
	s.res.Finish[id] = now
	s.executed++
	for _, e := range s.g.Succ(id) {
		target := s.plan.Device[e.To]
		if target == devID {
			s.depSatisfied(e.To, now)
			continue
		}
		lk := &s.links[int(devID)*len(s.devs)+int(target)]
		start := now
		if !s.sys.CongestionFree && lk.free > start {
			start = lk.free
		}
		dur := s.sys.TransferTime(devID, target, e.Bytes)
		if s.inj != nil {
			dur = s.inj.TransferDuration(devID, target, e.Bytes, start, dur)
			if dur < 0 {
				dur = 0
			}
		}
		finish := start + dur
		lk.free, lk.busy, lk.used = finish, lk.busy+dur, true
		s.res.Transfers = append(s.res.Transfers, TransferEvent{
			Edge: e, From: devID, To: target,
			Enqueue: now, Start: start, Finish: finish,
		})
		s.push(finish, evTransferDone, e.To)
	}
	s.dispatch(devID, now)
}
