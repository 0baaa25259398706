package webproxy

// The persistent disk tier (Config.DiskDir): every validated object is
// written behind the sharded in-memory store through the shared
// finishRefresh path — asynchronously, so the hit path never touches
// disk — and three flows bring state back:
//
//   - rehydrate (startup): records within the grace window re-enter the
//     store born *suspect*, scheduled for an immediate validation poll
//     through the ordinary worker pool (so a restart cannot self-herd
//     the origin), and served as X-Cache: GRACE until confirmed. The Δt
//     guarantee across a restart is therefore explicit: at most
//     DiskGrace plus the validation queue delay, never silently
//     unbounded.
//   - promote (demand): a request for a key that lives only on disk —
//     demoted by CLOCK replacement or beyond the grace window at
//     startup — revalidates it with a conditional fetch before serving,
//     reusing the disk body on a 304. Promotion runs inside the
//     admission singleflight, so the re-admission race resolves to one
//     origin fetch.
//   - demote (replacement): CLOCK victims keep their disk record (the
//     write-behind already persisted their last validated state), so
//     capacity is disk-bound, not RAM-bound. Admin Evict purges both
//     tiers.

import (
	"broadway/internal/diskstore"
	"broadway/internal/httpx"
)

// persistEntry snapshots e's validated state into the disk tier's
// write-behind queue. Called from finishRefresh (every poll, trigger,
// and pushed-value install) and from the admission paths; a no-op when
// persistence is disabled or the entry was never admitted.
func (p *Proxy) persistEntry(e *entry) {
	if p.disk == nil || e.capped {
		return
	}
	e.mu.RLock()
	rec := diskstore.Record{
		Key:          e.key,
		Group:        e.group,
		ContentType:  e.contentType,
		CacheControl: e.cacheControl,
		LastMod:      e.lastMod,
		HasLastMod:   e.hasLastMod,
		ValidatedAt:  e.validatedAt,
		Delta:        e.delta,
		GroupDelta:   e.groupDelta,
		ValueDelta:   e.valueDelta,
	}
	// A paired M_v policy is half of a shared controller whose split
	// tolerance dies with the pair; persist TTR zero and let the
	// rehydrated entry re-learn (and re-pair) from scratch.
	if !e.paired {
		rec.TTR = learnedTTR(e.policy)
	}
	body := e.body
	e.mu.RUnlock()
	p.disk.Put(rec, body)
}

// demote finishes a replacement eviction: the victims are unwound from
// scheduler, groups, and ledger exactly as before, but their disk
// records — already current via the write-behind — survive, so the
// next request promotes from disk instead of paying a cold fetch.
func (p *Proxy) demote(victims []*entry) {
	p.unwind(victims)
	if p.disk == nil {
		return
	}
	for _, v := range victims {
		if _, ok := p.disk.Meta(v.key); ok {
			p.diskDemotions.Add(1)
		}
	}
}

// promote re-admits a disk-resident object through a validating
// conditional fetch: a 304 reuses the disk body (metadata and learned
// TTR restored), a 200 installs the fresh version. Either way the entry
// re-enters the store validated — never suspect — so promotion cannot
// widen the Δt bound. Callers hold the admission singleflight slot.
func (p *Proxy) promote(key string, rec diskstore.Record, body []byte) (*entry, error) {
	since := rec.ValidatedAt
	if rec.HasLastMod {
		since = rec.LastMod
	}
	resp, err := p.fetch(key, since)
	if err != nil {
		// No unvalidated stale serves on the demand path: the client
		// gets the same 502 a cold miss would. (Grace-mode serving is a
		// startup decision, made explicitly and labeled.)
		return nil, err
	}
	now := p.cfg.Clock()
	a := admission{
		validatedAt: now,
		delta:       p.cfg.DefaultDelta,
		groupDelta:  p.cfg.DefaultGroupDelta,
		valueDelta:  rec.ValueDelta,
		group:       rec.Group,
		initialPoll: true,
	}
	// Tolerance resolution: config defaults, overlaid by the persisted
	// record, overlaid by whatever the origin's response advertises now
	// — the origin's current directives always win, the record only
	// fills silence (a 304 with no Cache-Control).
	if rec.Delta > 0 {
		a.delta = rec.Delta
	}
	if rec.GroupDelta > 0 {
		a.groupDelta = rec.GroupDelta
	}
	if tol, err := httpx.TolerancesFrom(resp.header); err == nil {
		if tol.Delta > 0 {
			a.delta = tol.Delta
		}
		if tol.GroupDelta > 0 {
			a.groupDelta = tol.GroupDelta
		}
		if tol.ValueDelta > 0 {
			a.valueDelta = tol.ValueDelta
		}
		if tol.Group != "" {
			a.group = tol.Group
		}
	}
	if resp.notModified {
		a.body = body
		a.contentType = rec.ContentType
		a.cacheControl = rec.CacheControl
		if cc := resp.header.Get("Cache-Control"); cc != "" {
			a.cacheControl = cc
		}
		a.lastMod, a.hasLastMod = rec.LastMod, rec.HasLastMod
		// The copy is unchanged, so the TTR learned across the object's
		// whole history is still the right schedule.
		a.restoreTTR = rec.TTR
	} else {
		a.body = resp.body
		a.contentType = resp.contentType
		a.cacheControl = resp.header.Get("Cache-Control")
		a.lastMod, a.hasLastMod = resp.lastMod, resp.hasLastMod
	}

	var admittedValue float64
	var admittedHasValue bool
	if v, ok := parseValueBody(a.body); ok && a.valueDelta > 0 {
		admittedValue, admittedHasValue = v, true
	}

	e, inserted := p.installEntry(key, a)
	p.diskPromotions.Add(1)
	if inserted {
		p.persistEntry(e)
	}
	if obs := p.cfg.PollObserver; obs != nil {
		obs(PollObservation{
			Key: key, At: now, Modified: !resp.notModified, Initial: true,
			Value: admittedValue, HasValue: admittedHasValue,
		})
	}
	return e, nil
}

// rehydrate re-admits disk records into the in-memory store at startup.
// Records within the grace window come back warm — born suspect, with
// an immediate validation poll scheduled (dispatched by the worker pool
// once Start runs, which rate-limits the origin herd) — while older
// records stay on disk until a request promotes them through a
// validating fetch.
func (p *Proxy) rehydrate() {
	now := p.cfg.Clock()
	for _, key := range p.disk.Keys() {
		rec, body, ok := p.disk.Get(key)
		if !ok {
			continue
		}
		if now.Sub(rec.ValidatedAt) > p.cfg.DiskGrace {
			// Too stale for grace-mode serving (with DiskGrace < 0,
			// everything is): left demoted, promoted on demand.
			continue
		}
		a := admission{
			body:         body,
			contentType:  rec.ContentType,
			cacheControl: rec.CacheControl,
			lastMod:      rec.LastMod,
			hasLastMod:   rec.HasLastMod,
			validatedAt:  rec.ValidatedAt,
			delta:        p.cfg.DefaultDelta,
			groupDelta:   p.cfg.DefaultGroupDelta,
			valueDelta:   rec.ValueDelta,
			group:        rec.Group,
			restoreTTR:   rec.TTR,
			suspect:      true,
			scheduleAt:   now, // immediate validation poll
		}
		if rec.Delta > 0 {
			a.delta = rec.Delta
		}
		if rec.GroupDelta > 0 {
			a.groupDelta = rec.GroupDelta
		}
		if _, inserted := p.installEntry(key, a); inserted {
			p.diskRehydrated.Add(1)
		}
	}
}

// DiskStats reports the persistent tier's state and lifetime counters;
// Enabled false (the zero value) means Config.DiskDir was not set.
type DiskStats struct {
	// Enabled reports whether the disk tier is configured.
	Enabled bool
	// Records and Bytes are the durable index's current footprint.
	Records int
	Bytes   int64
	// PendingWrites is the write-behind queue depth (coalesced keys).
	PendingWrites int
	// Writes and WriteErrors count applied and failed persist
	// operations; Deletes counts applied purges; Evictions counts
	// records dropped by the disk byte budget (oldest validated first).
	Writes      uint64
	WriteErrors uint64
	Deletes     uint64
	Evictions   uint64
	// Demotions counts replacement victims whose disk record made the
	// eviction a tier transition instead of a loss; Promotions counts
	// disk records re-admitted through a validating fetch.
	Demotions  uint64
	Promotions uint64
	// Rehydrated counts entries restored warm at startup; GraceServes
	// counts hits served as X-Cache: GRACE before re-validation.
	Rehydrated  uint64
	GraceServes uint64
}

// DiskStats returns the disk tier's counters (zero value when disabled).
func (p *Proxy) DiskStats() DiskStats {
	if p.disk == nil {
		return DiskStats{}
	}
	st := p.disk.Stats()
	return DiskStats{
		Enabled:       true,
		Records:       st.Records,
		Bytes:         st.Bytes,
		PendingWrites: st.PendingWrites,
		Writes:        st.Writes,
		WriteErrors:   st.WriteErrors,
		Deletes:       st.Deletes,
		Evictions:     st.Evictions,
		Demotions:     p.diskDemotions.Load(),
		Promotions:    p.diskPromotions.Load(),
		Rehydrated:    p.diskRehydrated.Load(),
		GraceServes:   p.diskGraceServes.Load(),
	}
}

// FlushDisk drains the write-behind queue; a no-op when persistence is
// disabled. Tests (and the crash smoke's graceful path) use it to make
// "persisted" deterministic.
func (p *Proxy) FlushDisk() {
	if p.disk != nil {
		p.disk.Flush()
	}
}
