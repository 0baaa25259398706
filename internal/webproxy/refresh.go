package webproxy

import (
	"sync"
	"time"

	"broadway/internal/core"
	"broadway/internal/push"
)

// This file is the refresh engine: a dispatcher goroutine that pops due
// entries off the min-heap schedule and a bounded pool of poll workers
// that perform the origin fetches. Work is routed to workers by the
// FNV hash of the entry's serialization key (its consistency group when
// it has one, else its cache key), so polls of one object — and of all
// objects sharing a group — always execute on the same worker in order.
// That affinity is what keeps the per-group MutualTimeController and the
// shared state of partitioned M_v policy pairs single-threaded while
// unrelated objects refresh fully in parallel.

// job is one unit of poll work routed to a worker. Its kind says why the
// poll was requested (see core.PollKind): regular polls come off the TTR
// schedule, triggered polls are demanded by a mutual-consistency
// controller, pushed polls by the origin's invalidation channel.
type job struct {
	e    *entry
	kind core.PollKind
}

// worker is one poll worker with an unbounded mailbox. The mailbox must
// be unbounded: a worker enqueues triggered polls for its own group
// (i.e. to itself) mid-poll, which would deadlock on a bounded channel.
type worker struct {
	mu    sync.Mutex
	queue []job
	head  int // index of the next job; consumed prefix is compacted lazily
	wake  chan struct{}
}

func (w *worker) enqueue(j job) {
	w.mu.Lock()
	w.queue = append(w.queue, j)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *worker) dequeue() (job, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head == len(w.queue) {
		if w.head != 0 {
			w.queue = w.queue[:0]
			w.head = 0
		}
		return job{}, false
	}
	j := w.queue[w.head]
	w.queue[w.head] = job{}
	w.head++
	// Compact once the consumed prefix dominates, keeping pops O(1)
	// amortized while bounding memory held by drained bursts.
	if w.head > 64 && w.head*2 >= len(w.queue) {
		n := copy(w.queue, w.queue[w.head:])
		w.queue = w.queue[:n]
		w.head = 0
	}
	return j, true
}

// workerFor routes e to its affinity worker.
func (p *Proxy) workerFor(e *entry) *worker {
	k := e.group
	if k == "" {
		k = e.key
	}
	return p.workers[fnv32(k)%uint32(len(p.workers))]
}

// workerLoop drains one worker's mailbox until the proxy closes.
func (p *Proxy) workerLoop(w *worker) {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		default:
		}
		if j, ok := w.dequeue(); ok {
			p.pollEntry(j.e, j.kind)
			p.pending.Add(-1)
			continue
		}
		select {
		case <-p.done:
			return
		case <-w.wake:
		}
	}
}

// dispatchLoop pops due entries off the schedule and hands them to their
// affinity workers. It sleeps until the heap's earliest instant (the
// armed instant, recorded under schedMu), waking early when a poll is
// booked before it.
func (p *Proxy) dispatchLoop() {
	defer p.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		p.dispatchPasses.Add(1)
		now := p.cfg.Clock()
		simNow := p.toSim(now)
		var due []*entry
		p.schedMu.Lock()
		for {
			it := p.schedule.PopDue(simNow)
			if it == nil {
				break
			}
			e := it.Payload.(*entry)
			e.item = nil
			if e.evicted.Load() {
				continue // unwound between Remove and this pop; drop it
			}
			// Count the job before the heap stops covering it, still
			// under schedMu: quiescence probes (InFlightPolls +
			// NextRefreshAt) must never observe the gap between pop and
			// enqueue.
			p.pending.Add(1)
			due = append(due, e)
		}
		wait := time.Hour
		if it := p.schedule.Peek(); it != nil {
			wait = it.At.Sub(simNow)
			if wait < 0 {
				wait = 0
			}
		}
		p.armedAt = simNow.Add(wait)
		p.schedMu.Unlock()
		for _, e := range due {
			p.workerFor(e).enqueue(job{e: e, kind: core.PollRegular})
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-p.done:
			return
		case <-p.wake:
		case <-timer.C:
		}
	}
}

// kick wakes the dispatcher after schedule changes.
func (p *Proxy) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// reschedule sets e's next regular poll instant (unstretched: the
// instant doubles as its own paper-mode baseline). An evicted entry is
// never (re)scheduled: the eviction token is set before unschedule takes
// schedMu, so checking it under schedMu closes the race with a poll
// finishing while its entry is being evicted — whichever side runs
// second leaves the entry off the heap. The dispatcher is woken only
// when the poll falls before its armed instant.
func (p *Proxy) reschedule(e *entry, at time.Time) {
	p.schedMu.Lock()
	if e.evicted.Load() {
		p.schedMu.Unlock()
		return
	}
	e.baseNextAt = at
	earlier := p.setNextAt(e, at)
	p.schedMu.Unlock()
	if earlier {
		p.kick()
	}
}

// setNextAt books e's next regular poll at the wall-clock instant at,
// keyed on the heap by its position on the simulated timeline, and
// reports whether it falls before the dispatcher's armed instant (a
// later one needs no wake: the dispatcher re-reads the heap when its
// timer fires). Callers hold schedMu.
func (p *Proxy) setNextAt(e *entry, at time.Time) bool {
	e.nextAt = at
	sim := p.toSim(at)
	if e.item != nil {
		p.schedule.Reschedule(e.item, sim)
	} else {
		e.item = p.schedule.Push(sim, e)
	}
	return sim.Before(p.armedAt)
}

// rescheduleHybrid sets e's next regular poll ttr from now, stretched
// while the push channel is healthy; the unstretched instant is
// remembered so the fallback sweep can restore it if the channel dies
// before the poll runs. The stretch decision is made under schedMu —
// the same lock the sweep holds for its entire pass — so a poll racing
// a disconnect either reschedules before the sweep (and is swept back)
// or observes the channel already unhealthy; a stretched instant can
// never slip onto the heap after the sweep has passed it by.
func (p *Proxy) rescheduleHybrid(e *entry, now time.Time, ttr time.Duration) {
	p.schedMu.Lock()
	if e.evicted.Load() {
		p.schedMu.Unlock()
		return
	}
	e.baseNextAt = now.Add(ttr)
	earlier := p.setNextAt(e, now.Add(p.stretchTTR(e, ttr)))
	p.schedMu.Unlock()
	if earlier {
		p.kick()
	}
}

// unschedule removes e's pending poll, if any, from the refresh heap.
func (p *Proxy) unschedule(e *entry) {
	p.schedMu.Lock()
	if e.item != nil {
		p.schedule.Remove(e.item)
		e.item = nil
	}
	e.nextAt = time.Time{}
	e.baseNextAt = time.Time{}
	p.schedMu.Unlock()
}

// leaveGroup detaches an evicted entry from its consistency group: it is
// dropped from the member list (no more triggered polls target it) and
// the controller forgets its learned update rate. Evicting half of a
// partitioned M_v pair widows the survivor, which is unpaired and
// returned to an individual AdaptiveTTR policy over its own Δv — its
// tightened tolerance share would otherwise poll forever for a partner
// that no longer exists — leaving it free to re-pair with the next
// value member admitted to the group.
func (p *Proxy) leaveGroup(e *entry) {
	if e.group == "" {
		return
	}
	// groupMu is held for the whole removal (lock order groupMu →
	// gs.mu, matching groupStateOrCreate → joinGroup) so that a group
	// emptied here can be retired from the map atomically with marking
	// it dead — a concurrent joinGroup then either sees the dead state
	// and retries, or the removal sees its member and keeps the group.
	p.groupMu.Lock()
	defer p.groupMu.Unlock()
	gs := p.groups[e.group]
	if gs == nil {
		return
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	for i, m := range gs.members {
		if m == e {
			gs.members = append(gs.members[:i], gs.members[i+1:]...)
			break
		}
	}
	p.dissolvePair(e)
	gs.ctrl.Forget(core.ObjectID(e.key))
	if len(gs.members) == 0 {
		// Last member gone: retire the group so churn over distinct
		// group names cannot leak controllers.
		gs.dead = true
		delete(p.groups, e.group)
	}
}

// scheduledNextAt reads e's next regular poll instant.
func (p *Proxy) scheduledNextAt(e *entry) time.Time {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	return e.nextAt
}

// pollEntry performs one refresh of e. Triggered and pushed polls leave
// the regular schedule untouched, mirroring the simulator's proxy. A
// pushed job first tries to install the event's payload directly (the
// value-carrying fast path) and only reaches the origin when that is
// impossible.
func (p *Proxy) pollEntry(e *entry, kind core.PollKind) {
	if kind == core.PollPushed {
		// Clear the coalescing flag before consuming the event: an event
		// arriving mid-job must enqueue a fresh job (this one may
		// already have read an older version).
		e.pushQueued.Store(false)
		if p.cfg.PushValues {
			pending := e.pendingPush.Swap(nil)
			if pending == nil {
				// Every event fills the slot before it queues a job, so an
				// empty slot means the previous job consumed this job's
				// event — it arrived after that job cleared pushQueued but
				// before it took the slot — and installed or polled for
				// it. Nothing is owed.
				return
			}
			if p.applyPushedValue(e, pending) {
				return // installed (or a recognized duplicate): no origin request
			}
			if e.evicted.Load() && p.applyPushedToDisk(*pending) {
				// Demoted mid-flight: the entry left the store between
				// the event and this job, but its disk record survives
				// — landing the payload there keeps the demoted copy
				// fresh for the next promotion.
				return
			}
			p.pushValueFallback.Add(1)
		}
	}
	// An entry evicted after being popped off the schedule (or while
	// queued on its worker) must not poll the origin: eviction promises
	// the object never causes another upstream request. A pushed job's
	// event is owed all the same, so a demoted record is marked stale.
	if e.evicted.Load() {
		if kind == core.PollPushed {
			p.pollIfPromoted(e.key)
		}
		return
	}
	e.mu.RLock()
	since := e.lastMod
	hasSince := e.hasLastMod
	prevValidated := e.validatedAt
	e.mu.RUnlock()
	if !hasSince {
		since = prevValidated
	}

	resp, err := p.fetch(e.key, since)
	now := p.cfg.Clock()
	if err != nil {
		p.deferRetry(e, now, kind)
		return
	}
	e.polls.Add(1)
	switch kind {
	case core.PollTriggered:
		e.triggered.Add(1)
	case core.PollPushed:
		e.pushed.Add(1)
	}

	obs := core.Observation{Modified: !resp.notModified}
	if resp.hasLastMod {
		obs.LastModified = p.toSim(resp.lastMod)
		obs.HasLastModified = true
	}
	for _, h := range resp.history {
		obs.History = append(obs.History, p.toSim(h))
	}

	e.mu.Lock()
	e.failures = 0
	e.validatedAt = now
	// A 304 carries Cache-Control too (the origin writes the §5.1
	// tolerance directives on every response), and HTTP semantics say a
	// revalidation updates stored headers. Refreshing it here — not only
	// on a 200 — matters doubly under value-carrying push: installs
	// advance lastMod without touching headers, so the periodic
	// stretched poll's 304 is the only channel left for a tolerance
	// change to reach this proxy and its children.
	rerender := false
	if cc := resp.header.Get("Cache-Control"); cc != "" && cc != e.cacheControl {
		e.cacheControl = cc
		rerender = true
	}
	prev := core.ObjectState{ValidatedAt: p.toSim(prevValidated), Value: e.value, Fetched: true}
	var prevBody []byte
	var prevDigest string
	if !resp.notModified {
		if p.cfg.PushValues {
			// The outgoing body is the delta base downstream subscribers
			// hold; snapshot it (and its digest) before the swap so the
			// confirmation relay can publish a re-based delta form.
			prevBody, prevDigest = e.body, e.bodyDigest
			e.bodyDigest = push.DigestOf(resp.body)
		}
		e.body = resp.body
		if resp.contentType != "" {
			e.contentType = resp.contentType
		}
		if resp.hasLastMod {
			e.lastMod = resp.lastMod
			e.hasLastMod = true
		}
		rerender = true
		if e.isValue {
			if v, ok := parseValueBody(resp.body); ok {
				e.value = v
			}
		}
	}
	if rerender {
		e.renderHeaders()
	}
	obs.HasValue, obs.Value = e.isValue, e.value
	step := core.Refresh(e.policy, prev, kind, p.toSim(now), obs)
	paired := e.paired
	e.mu.Unlock()

	rr := refreshResult{kind: kind, now: now, step: step, paired: paired}
	if !resp.notModified {
		rr.resized = true
		rr.newSize = entrySize(e.key, resp.body)
		// Confirmation relay: the cached copy is fresh as of now, so
		// downstream subscribers can be told (published after the body
		// swap above — a child that polls on this event must find the
		// new version, not the stale one the pass-through event raced).
		mod := now
		if resp.hasLastMod {
			mod = resp.lastMod
		}
		rr.relay = func() { p.relayConfirmedUpdate(e, mod, prevBody, prevDigest) }
	}
	p.finishRefresh(e, rr)
}

// refreshResult carries what finishRefresh needs from the two paths
// that install a fresh validation of an object: an origin poll
// (pollEntry) and a direct pushed-value install (applyPushedValue).
type refreshResult struct {
	kind core.PollKind
	now  time.Time
	// step is the core refresh step's verdict: the outcome the group
	// controller learns from, the next regular TTR (regular polls only),
	// and whether §3.2 triggering runs.
	step   core.Step
	paired bool
	// resized marks a body replacement: newSize re-charges the byte
	// ledger and the budget is re-enforced.
	resized bool
	newSize int64
	// relay, when non-nil, publishes the update downstream. It runs
	// after the ledger update — and therefore after the body swap the
	// caller performed — so a child that polls on the relayed event
	// finds the fresh copy, never the stale one.
	relay func()
	// applied marks a pushed payload installed with no origin request.
	applied bool
}

// finishRefresh is the post-refresh bookkeeping shared by every path
// that installs a fresh validation of e — scheduled, triggered, and
// pushed polls, and direct pushed-value installs. In order: byte-ledger
// re-charge with budget re-enforcement, downstream relay publication,
// the eviction-token-guarded controller observation, rescheduling,
// §3.2 group triggering, and the observer emission. It reports whether
// the entry survived (an eviction mid-refresh stops everything past the
// controller guard: the object no longer owns a refresh slot).
func (p *Proxy) finishRefresh(e *entry, rr refreshResult) bool {
	if rr.resized {
		// The refresh replaced the body: re-charge the byte ledger.
		// Refreshes of one entry serialize on its affinity worker, so
		// the size transition is single-threaded; resize itself is a
		// no-op if the entry was evicted meanwhile. Growth can push the
		// ledger past MaxBytes with no admission in sight, so the
		// budget is re-enforced here too (the refreshed object itself
		// is protected — it is demonstrably live).
		p.store.resize(e, rr.newSize)
		if p.cfg.Eviction == EvictClock {
			if p.cfg.MaxBytes >= 0 && e.size.Load() > p.cfg.MaxBytes {
				// The body grew past the whole budget: an object this
				// size would be refused at admission, so it cannot stay
				// resident either. Removing it must precede the shrink
				// loop — with the oversized entry protected, shrink
				// would drain every other resident and still be over
				// budget. A later request re-fetches and is served
				// uncached (BYPASS) while it stays oversized.
				if p.store.removeEntry(e) {
					p.unwind([]*entry{e})
				}
			}
			p.demote(p.store.shrink(p.cfg.MaxObjects, p.cfg.MaxBytes, p.store.shardIndex(e.key), e))
		}
	}
	if rr.relay != nil {
		rr.relay()
	}

	gs := p.groupState(e.group)
	if gs != nil {
		gs.mu.Lock()
		// Re-check the eviction token under gs.mu: if the entry was
		// evicted while this refresh was in flight, leaveGroup has run
		// (or will run) Forget for it, and feeding the outcome now
		// would resurrect controller state for a non-resident object.
		// The token is set before leaveGroup takes gs.mu, so whichever
		// side acquires gs.mu second leaves the controller clean.
		if !e.evicted.Load() {
			gs.ctrl.ObserveOutcome(core.ObjectID(e.key), rr.step.Outcome)
		}
		gs.mu.Unlock()
	}
	if e.evicted.Load() {
		// Evicted mid-refresh: no reschedule, no triggering. A demoted
		// record misses what this refresh learned, so mark it stale.
		p.pollIfPromoted(e.key)
		return false
	}

	// The refresh confirmed (or replaced) the cached copy against the
	// origin: a rehydrated entry sheds its suspect mark, and the
	// validated state flows to the disk tier (async write-behind; no-op
	// when persistence is disabled).
	if e.suspect.Load() {
		e.suspect.Store(false)
	}
	p.persistEntry(e)
	if e.evicted.Load() {
		// Demoted before the write above was queued: a promotion may
		// already have read the older record.
		p.pollIfPromoted(e.key)
	}

	if rr.step.Reschedule {
		// While the push channel is healthy the regular poll is only a
		// safety net; stretch it toward the upper bound and remember the
		// paper-mode instant for the fallback sweep.
		p.rescheduleHybrid(e, rr.now, rr.step.TTR)
	}
	// Temporal group triggering; partitioned M_v pairs maintain their
	// mutual guarantee through the tolerance split instead.
	if rr.step.Trigger && gs != nil && !rr.paired {
		p.triggerGroup(e, gs, rr.now)
	}
	if obs := p.cfg.PollObserver; obs != nil {
		e.mu.RLock()
		value, hasValue := e.value, e.isValue
		e.mu.RUnlock()
		obs(PollObservation{
			Key:       e.key,
			At:        rr.now,
			Modified:  rr.step.Outcome.Modified,
			Triggered: rr.kind == core.PollTriggered,
			Pushed:    rr.kind == core.PollPushed,
			Applied:   rr.applied,
			Value:     value,
			HasValue:  hasValue,
		})
	}
	return true
}

// deferRetry handles an upstream failure with capped exponential backoff
// starting from the policy's initial TTR. The policy itself is never fed
// a failed poll, so its learned TTR state survives origin flaps intact.
func (p *Proxy) deferRetry(e *entry, now time.Time, kind core.PollKind) {
	e.mu.Lock()
	e.failures++
	n := e.failures
	base := e.policy.InitialTTR()
	e.mu.Unlock()
	retryAt := now.Add(backoffDelay(base, n, p.maxBackoff()))
	if kind != core.PollRegular {
		// A failed triggered or pushed poll must still be retried
		// promptly — the group's mutual guarantee (or the pushed
		// update's freshness) is on the line — so pull the regular poll
		// forward to the retry instant. Never push an even sooner poll
		// later; a nil item means a regular poll is already queued on
		// this worker, which is itself the prompt retry.
		p.schedMu.Lock()
		pull := e.item != nil && retryAt.Before(e.nextAt)
		if pull {
			if retryAt.Before(e.baseNextAt) {
				e.baseNextAt = retryAt
			}
			p.setNextAt(e, retryAt)
		}
		p.schedMu.Unlock()
		if pull {
			p.kick()
		}
		return
	}
	p.reschedule(e, retryAt)
}

// backoffDelay returns base doubled per consecutive failure beyond the
// first, capped at max.
func backoffDelay(base time.Duration, failures int, max time.Duration) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	d := base
	for i := 1; i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// maxBackoff is the retry-delay ceiling.
func (p *Proxy) maxBackoff() time.Duration {
	if p.cfg.Bounds.Max > 0 {
		return p.cfg.Bounds.Max
	}
	return core.DefaultTTRMax
}

// triggerGroup enqueues immediate extra polls of e's group members where
// the controller demands it.
func (p *Proxy) triggerGroup(e *entry, gs *groupState, now time.Time) {
	// gs.mu is held across the scan (nesting gs.mu → entry.mu matches
	// joinGroup and is taken nowhere in reverse). The member snapshot
	// runs first so the single schedMu section that follows — one
	// acquisition for the whole scan, not one per member — never holds
	// an entry lock.
	type candidate struct {
		other       *entry
		validatedAt time.Time
	}
	gs.mu.Lock()
	cands := make([]candidate, 0, len(gs.members))
	for _, other := range gs.members {
		if other == e {
			continue
		}
		other.mu.RLock()
		validatedAt := other.validatedAt
		other.mu.RUnlock()
		cands = append(cands, candidate{other, validatedAt})
	}
	p.schedMu.Lock()
	toTrigger := core.Triggers(gs.ctrl, core.ObjectID(e.key), p.toSim(now), cands, func(c candidate) core.GroupMember {
		return core.GroupMember{
			ID:          core.ObjectID(c.other.key),
			ValidatedAt: p.toSim(c.validatedAt),
			NextPoll:    p.toSim(c.other.nextAt),
		}
	})
	p.schedMu.Unlock()
	gs.mu.Unlock()
	for _, c := range toTrigger {
		// Same group ⇒ same affinity worker ⇒ the triggered poll runs
		// strictly after the current one; enqueueing is non-blocking.
		p.pending.Add(1)
		p.workerFor(c.other).enqueue(job{e: c.other, kind: core.PollTriggered})
	}
}

// groupState looks up the state for a group name ("" returns nil).
func (p *Proxy) groupState(group string) *groupState {
	if group == "" {
		return nil
	}
	p.groupMu.RLock()
	gs := p.groups[group]
	p.groupMu.RUnlock()
	return gs
}

// groupStateOrCreate returns the state for group, creating it with the
// given δ on first use.
func (p *Proxy) groupStateOrCreate(group string, groupDelta time.Duration) *groupState {
	p.groupMu.Lock()
	defer p.groupMu.Unlock()
	gs, ok := p.groups[group]
	if !ok {
		gs = &groupState{ctrl: core.NewMutualTimeController(core.MutualTimeConfig{
			Delta: groupDelta,
			Mode:  p.cfg.Mode,
		})}
		p.groups[group] = gs
	}
	return gs
}
