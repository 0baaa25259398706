package core

import (
	"time"

	"broadway/internal/simtime"
)

// The per-object refresh step: the glue between one upstream contact and
// the policies. Both proxies — the simulator (internal/proxy) and the
// live HTTP proxy (internal/webproxy) — drive Refresh with their own
// clock, locking, I/O and failure handling, so the paper's refresh rule
// (§3.1, §3.2, §4.1) is written exactly once.

// PollKind says why a poll ran.
type PollKind uint8

const (
	// PollRegular is a poll off the object's own TTR schedule. It feeds
	// the policy and yields the next TTR.
	PollRegular PollKind = iota
	// PollTriggered is an extra poll a mutual-consistency controller
	// demanded (§3.2). It refreshes the copy but neither feeds the
	// policy nor disturbs the regular schedule, and it never triggers
	// further polls.
	PollTriggered
	// PollPushed is a refresh the origin initiated (an invalidation or
	// a pushed value). Like a triggered poll it leaves the policy and
	// the schedule alone, but a confirmed update imposes the same
	// mutual obligation as one learned by polling, so it triggers.
	PollPushed
)

// ObjectState is the consistency state a proxy keeps for one cached
// object: what a refresh step reads and advances.
type ObjectState struct {
	// ValidatedAt is the instant of the last successful poll; it is the
	// next outcome's Prev.
	ValidatedAt simtime.Time
	// Value is the cached value (value-domain objects).
	Value float64
	// Fetched reports whether the initial fetch has completed.
	Fetched bool
}

// Observation is what one upstream contact revealed about the object.
type Observation struct {
	// Modified is the If-Modified-Since result.
	Modified bool
	// LastModified is the server's Last-Modified (when HasLastModified).
	LastModified    simtime.Time
	HasLastModified bool
	// History holds the modification instants since the previous poll
	// when the server supports the §5.1 history extension.
	History []simtime.Time
	// HasValue and Value carry the object's value after the contact
	// (value-domain objects).
	HasValue bool
	Value    float64
}

// Step is the result of one refresh step.
type Step struct {
	// Outcome is the protocol-visible poll outcome, fed to the group
	// controller's rate estimators.
	Outcome PollOutcome
	// State is the object's consistency state after the poll.
	State ObjectState
	// Reschedule reports whether TTR applies: only a regular poll books
	// the object's next regular poll.
	Reschedule bool
	// TTR is the interval to the next regular poll.
	TTR time.Duration
	// Trigger reports whether the poll revealed an update that §3.2
	// group triggering must act on.
	Trigger bool
}

// Refresh applies one successful upstream contact at instant now to an
// object in state st under policy. The initial fetch precedes any
// meaningful interval, so a regular first fetch starts at the policy's
// InitialTTR; later regular polls consume the outcome through NextTTR.
// Triggered and pushed polls never touch the policy (which may be nil
// for objects that are never polled on a schedule). An update triggers
// related objects unless it was itself found by a triggered poll or was
// the initial fetch.
func Refresh(policy Policy, st ObjectState, kind PollKind, now simtime.Time, obs Observation) Step {
	s := Step{
		Outcome: PollOutcome{
			Now:             now,
			Prev:            st.ValidatedAt,
			Modified:        obs.Modified,
			LastModified:    obs.LastModified,
			HasLastModified: obs.HasLastModified,
			History:         obs.History,
			HasValue:        obs.HasValue,
			Value:           obs.Value,
			PrevValue:       st.Value,
		},
		State:   ObjectState{ValidatedAt: now, Value: st.Value, Fetched: true},
		Trigger: obs.Modified && st.Fetched && kind != PollTriggered,
	}
	if obs.HasValue {
		s.State.Value = obs.Value
	}
	if kind == PollRegular {
		s.Reschedule = true
		s.TTR = nextTTR(policy, st.Fetched, s.Outcome)
	}
	return s
}

// nextTTR is the first-poll rule shared by individual and pair policies:
// InitialTTR before the first fetch, NextTTR(o) after it.
func nextTTR[O any](p interface {
	InitialTTR() time.Duration
	NextTTR(O) time.Duration
}, fetched bool, o O) time.Duration {
	if !fetched {
		return p.InitialTTR()
	}
	return p.NextTTR(o)
}

// GroupMember is one member of a consistency group as the §3.2 trigger
// scan sees it.
type GroupMember struct {
	ID ObjectID
	// ValidatedAt is the member's last poll instant; NextPoll is its
	// next scheduled regular poll.
	ValidatedAt simtime.Time
	NextPoll    simtime.Time
	// Busy marks a member whose regular poll is already in flight: it
	// is about to refresh anyway and is never triggered.
	Busy bool
}

// Triggers returns the members of c's group that need an immediate
// extra poll after an update to updated was detected at now, in member
// order. view describes each member to the controller; ShouldTrigger
// makes the decision for every member that is not busy.
func Triggers[M any](c *MutualTimeController, updated ObjectID, now simtime.Time, members []M, view func(M) GroupMember) []M {
	var out []M
	for _, m := range members {
		v := view(m)
		if v.Busy {
			continue
		}
		if c.ShouldTrigger(updated, v.ID, now, v.ValidatedAt, v.NextPoll) {
			out = append(out, m)
		}
	}
	return out
}
