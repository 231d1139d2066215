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

// readyOp is one op in a device's ready set. Under FIFO and Priority
// the set is a binary min-heap on (key, id): key is the op's ready time
// or its negated priority, mapped to an unsigned integer that preserves
// the order, so the heap pops exactly the op a linear scan for the
// earliest-ready (highest-priority) op, ties by lowest ID, would pick.
// Other policies keep the set in insertion order and ignore key.
type readyOp struct {
	key uint64
	id  graph.NodeID
}

func (a readyOp) before(b readyOp) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

// fifoKey orders ready times ascending.
func fifoKey(readyAt time.Duration) uint64 { return uint64(readyAt) ^ 1<<63 }

// priorityKey orders priorities descending. -0 ties with +0, as it does
// under ==; NaN has no place in the order and Validate rejects it.
func priorityKey(p float64) uint64 {
	if p == 0 {
		p = 0
	}
	b := math.Float64bits(p)
	if b>>63 == 0 {
		b |= 1 << 63
	} else {
		b = ^b
	}
	return ^b
}

// readyHeap is a binary min-heap of readyOps; (key, id) is unique, so
// the pop order does not depend on the heap's layout.
type readyHeap []readyOp

func (h *readyHeap) push(r readyOp) {
	q := append(*h, r)
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

func (h *readyHeap) pop() readyOp {
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

type deviceState struct {
	running  graph.NodeID // -1 when idle
	orderPos int          // cursor into Plan.Order for strict schedules
	ready    readyHeap    // ready set for policy scheduling
}

// linkState is one directional FCFS link: when it next falls free, its
// total service time, and whether any transfer used it.
type linkState struct {
	free, busy time.Duration
	used       bool
}

// scratch is the per-run working state that never escapes into a
// Result. Runs borrow it from scratchPool, so a warm Run allocates only
// its Result and a warm Scorer.Makespan nothing.
type scratch struct {
	pendingDeps []int
	readyAt     []time.Duration // max over dep-arrival times
	events      eventHeap
	devs        []deviceState
	links       []linkState // indexed from*len(devs)+to

	// Scorer.admits' dense Validate and CheckMemory state.
	colocDev []DeviceID
	seen     []bool
	memUse   []int64

	// unstarted[d] is the compute on device d that has not started yet,
	// kept by a bounded Scorer run.
	unstarted []time.Duration
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

// simulation is one Run, RunInjected or Makespan in flight: its inputs,
// the Result being filled in when recording, and the borrowed scratch.
// All three drive the same event loop (simulate); they differ only in
// where op and transfer durations come from and in whether the
// schedule is recorded.
type simulation struct {
	*scratch
	g        *graph.Graph
	sys      System
	plan     Plan
	sc       *Scorer // durations from sc's tables; nil computes them from g and sys
	inj      Injector
	policy   SchedulePolicy
	rng      *rand.Rand // PolicyRandom only
	record   bool       // fill res (Run, RunInjected)
	res      Result
	seq      int
	executed int

	// A bounded run (Scorer.MakespanBelow) stops with ErrAboveLimit
	// once an op's start proves the makespan reaches limit. tail is the
	// Scorer's; nil runs unbounded.
	limit time.Duration
	tail  []time.Duration

	// abort, once set, stops the run with its error: an injected fault
	// (mid-run OOM or device failure) or a reached limit. memStarted
	// tracks the cumulative footprint of operations started per device,
	// compared against the injector's (possibly shrinking) effective
	// capacity.
	abort      error
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
	s := simulation{scratch: scratchPool.Get().(*scratch), g: g, sys: sys, plan: plan, inj: inj, record: true}
	defer scratchPool.Put(s.scratch)
	s.reset(n, nd)
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

	now, err := s.simulate()
	res := s.res
	for i, l := range s.links {
		if l.used {
			res.LinkBusy[[2]DeviceID{DeviceID(i / nd), DeviceID(i % nd)}] = l.busy
		}
	}
	if err != nil {
		return res, err
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

// Makespan simulates one training step like Run and returns only its
// makespan, with the same errors. It records no schedule, so it costs
// less than Run for a caller that scores one plan; a caller scoring
// many plans against one graph and system should use a Scorer.
func Makespan(g *graph.Graph, sys System, plan Plan) (time.Duration, error) {
	if err := plan.Validate(g, sys); err != nil {
		return 0, err
	}
	if err := plan.CheckMemory(g, sys); err != nil {
		return 0, err
	}
	s := simulation{scratch: scratchPool.Get().(*scratch), g: g, sys: sys, plan: plan}
	defer scratchPool.Put(s.scratch)
	s.reset(g.NumNodes(), len(sys.Devices))
	for i := range s.pendingDeps {
		s.pendingDeps[i] = g.InDegree(graph.NodeID(i))
	}
	return s.simulate()
}

// simulate is the event loop. It expects reset scratch with
// pendingDeps holding every op's in-degree, and returns the makespan:
// the time of the last event, or zero when the run fails.
func (s *simulation) simulate() (time.Duration, error) {
	s.policy = s.plan.Policy
	if s.policy == 0 {
		s.policy = PolicyFIFO
	}
	if s.policy == PolicyRandom {
		s.rng = rand.New(rand.NewSource(s.plan.Seed))
	}
	// Seed the roots.
	n := len(s.pendingDeps)
	for i := 0; i < n; i++ {
		if s.pendingDeps[i] == 0 {
			s.markReady(graph.NodeID(i), 0)
		}
	}
	for d := range s.devs {
		s.dispatch(DeviceID(d), 0)
	}

	var now time.Duration
	for len(s.events) > 0 && s.abort == nil {
		ev := s.events.pop()
		now = ev.t
		switch ev.kind {
		case evOpDone:
			s.opDone(ev.node, now)
		case evTransferDone:
			s.depSatisfied(ev.node, now)
		}
	}
	if s.abort != nil {
		return 0, s.abort
	}
	if s.executed != n {
		return 0, fmt.Errorf("simulation deadlocked: executed %d of %d operations (invalid schedule order?): %w", s.executed, n, ErrBadPlacement)
	}
	return now, nil
}

func (s *simulation) push(t time.Duration, kind eventKind, node graph.NodeID) {
	s.events.push(event{t: t, seq: s.seq, node: node, kind: kind})
	s.seq++
}

// strictOrder returns the explicit order of a device, nil when the
// device schedules by policy.
func (s *simulation) strictOrder(devID DeviceID) []graph.NodeID {
	if order := s.plan.Order; int(devID) < len(order) {
		return order[devID]
	}
	return nil
}

func (s *simulation) markReady(id graph.NodeID, now time.Duration) {
	devID := s.plan.Device[id]
	if s.strictOrder(devID) != nil {
		return // a strict device never consults its ready set
	}
	d := &s.devs[devID]
	switch s.policy {
	case PolicyFIFO:
		d.ready.push(readyOp{key: fifoKey(now), id: id})
	case PolicyPriority:
		d.ready.push(readyOp{key: priorityKey(s.plan.Priority[id]), id: id})
	default:
		d.ready = append(d.ready, readyOp{id: id})
	}
}

// pickReady removes and returns the next op for a policy-scheduled
// device, or -1 when none is ready.
func (s *simulation) pickReady(d *deviceState) graph.NodeID {
	if len(d.ready) == 0 {
		return -1
	}
	idx := 0
	switch s.policy {
	case PolicyFIFO, PolicyPriority:
		return d.ready.pop().id
	case PolicyRandom:
		idx = s.rng.Intn(len(d.ready))
	}
	id := d.ready[idx].id
	d.ready = append(d.ready[:idx], d.ready[idx+1:]...)
	return id
}

func (s *simulation) startOp(devID DeviceID, id graph.NodeID, now time.Duration) {
	var dur time.Duration
	if s.sc != nil {
		dur = s.sc.dur[int(devID)*len(s.pendingDeps)+int(id)]
		if s.tail != nil {
			s.unstarted[devID] -= dur
			if end := now + dur; end+s.tail[id] >= s.limit || end+s.unstarted[devID] >= s.limit {
				s.abort = ErrAboveLimit
				return
			}
		}
	} else {
		dev := &s.sys.Devices[devID]
		nd, _ := s.g.Node(id)
		dur = opTime(nd.Cost, dev.Speed)
		if s.inj != nil {
			dur = s.inj.OpDuration(id, devID, now, dur)
			if dur < 0 {
				dur = 0
			}
			if ft, ok := s.inj.FailureTime(devID); ok && now+dur >= ft {
				// The op would start on, or still be running on, a dead
				// device.
				s.abort = &DeviceFailedError{Device: devID, At: ft}
				return
			}
			if dev.Memory > 0 {
				capNow := s.inj.DeviceCapacity(devID, now, dev.Memory)
				if s.memStarted[devID]+nd.Memory > capNow {
					s.abort = fmt.Errorf("device %s needs %d of %d effective bytes at %v: %w",
						dev.Name, s.memStarted[devID]+nd.Memory, capNow, now, ErrOOM)
					return
				}
			}
			s.memStarted[devID] += nd.Memory
		}
	}
	s.devs[devID].running = id
	if s.record {
		s.res.Start[id] = now
		s.res.DeviceBusy[devID] += dur
	}
	s.push(now+dur, evOpDone, id)
}

// opTime is the compute time of an op of the given cost on a device of
// the given speed; a speed <= 0 counts as 1.
func opTime(cost time.Duration, speed float64) time.Duration {
	if speed <= 0 {
		speed = 1
	}
	return time.Duration(math.Round(float64(cost) / speed))
}

// dispatch tries to start work on a device at the given time.
func (s *simulation) dispatch(devID DeviceID, now time.Duration) {
	d := &s.devs[devID]
	if d.running >= 0 {
		return
	}
	if order := s.strictOrder(devID); order != nil {
		if d.orderPos >= len(order) {
			return
		}
		next := order[d.orderPos]
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
	if s.record {
		s.res.Finish[id] = now
	}
	s.executed++
	for k, e := range s.g.Succ(id) {
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
		var dur time.Duration
		if s.sc != nil {
			dur = s.sc.transferTime(s.sc.succOff[id]+k, devID, target)
		} else {
			dur = s.sys.TransferTime(devID, target, e.Bytes)
			if s.inj != nil {
				dur = s.inj.TransferDuration(devID, target, e.Bytes, start, dur)
				if dur < 0 {
					dur = 0
				}
			}
		}
		finish := start + dur
		lk.free, lk.busy, lk.used = finish, lk.busy+dur, true
		if s.record {
			s.res.Transfers = append(s.res.Transfers, TransferEvent{
				Edge: e, From: devID, To: target,
				Enqueue: now, Start: start, Finish: finish,
			})
		}
		s.push(finish, evTransferDone, e.To)
	}
	s.dispatch(devID, now)
}
