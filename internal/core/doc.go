// Package core implements the paper's cache-consistency algorithms: the
// adaptive mechanisms for maintaining Δ-consistency of individual cached
// objects and the mutual-consistency mechanisms layered on top of them.
//
// # Taxonomy (paper Table 1)
//
//	Semantics  Domain    Type        Example
//	Δt         temporal  individual  object a is always within 5 time units of its server copy
//	Mt         temporal  mutual      objects a and b are never out of sync by more than 5 time units
//	Δv         value     individual  value of a is within 2.5 of its server copy
//	Mv         value     mutual      difference of a and b is within 2.5 of the difference at the server
//
// # Individual consistency
//
// [LIMD] maintains Δt-consistency by adapting the time-to-refresh (TTR)
// with linear increase / multiplicative decrease (paper §3.1).
// [AdaptiveTTR] maintains Δv-consistency by extrapolating the object's
// rate of change (paper §4.1, Eq. 9–10). [Periodic] is the poll-every-Δ
// baseline, which by construction never violates its guarantee.
//
// # Mutual consistency
//
// [MutualTimeController] augments per-object policies with triggered polls
// (paper §3.2): on detecting an update to one member of a group, it
// decides which related objects must be polled immediately so that the
// group stays within the mutual tolerance δ. [MutualValueAdaptive] tracks
// a function f of two object values as a virtual object (paper §4.2,
// Eq. 11–12); [MutualValuePartitioned] splits the tolerance δ across the
// two objects in inverse proportion to their change rates and reduces
// mutual consistency to individual consistency.
//
// Policies are pure single-threaded state machines: they consume only
// protocol-visible poll outcomes ([PollOutcome]) and produce the next TTR.
//
// # Refresh step
//
// [Refresh] is the glue around the policies, written once: given an
// object's consistency state, the kind of poll (regular, triggered or
// pushed) and what the upstream revealed, it builds the [PollOutcome],
// applies the first-poll rule, picks the next TTR and says whether §3.2
// group triggering runs; [Triggers] then selects the group members to
// poll. The deterministic simulator (internal/proxy) and the live HTTP
// proxy (internal/webproxy) both drive this step, each with its own
// clock, locking, I/O and failure backoff.
package core
