package core

import (
	"fmt"
	"time"

	"broadway/internal/simtime"
	"broadway/internal/stats"
)

// Func is the user-supplied function f over two object values whose drift
// the M_v-consistency semantics bound (Eq. 5): the proxy must keep
// |f(S_a,S_b) − f(P_a,P_b)| < δ.
type Func interface {
	// Name identifies the function in reports.
	Name() string
	// Eval computes f(a, b).
	Eval(a, b float64) float64
}

// DifferenceFunc is f(a,b) = a − b, the function the paper uses throughout
// its value-domain evaluation (comparing two stock prices). It is the
// function for which the partitioned approach applies.
type DifferenceFunc struct{}

// Name implements Func.
func (DifferenceFunc) Name() string { return "difference" }

// Eval implements Func.
func (DifferenceFunc) Eval(a, b float64) float64 { return a - b }

// SumFunc is f(a,b) = a + b (e.g. a two-stock portfolio value).
type SumFunc struct{}

// Name implements Func.
func (SumFunc) Name() string { return "sum" }

// Eval implements Func.
func (SumFunc) Eval(a, b float64) float64 { return a + b }

// RatioFunc is f(a,b) = a/b (e.g. a price ratio); b = 0 evaluates to 0.
type RatioFunc struct{}

// Name implements Func.
func (RatioFunc) Name() string { return "ratio" }

// Eval implements Func.
func (RatioFunc) Eval(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var (
	_ Func = DifferenceFunc{}
	_ Func = SumFunc{}
	_ Func = RatioFunc{}
)

// PairOutcome carries the protocol-visible result of polling both members
// of a related pair at (approximately) the same instant.
type PairOutcome struct {
	// Now is the poll instant, Prev the previous pair-poll instant.
	Now, Prev simtime.Time
	// ValueA and ValueB are the servers' values at Now.
	ValueA, ValueB float64
	// PrevValueA and PrevValueB are the cached values prior to this
	// poll.
	PrevValueA, PrevValueB float64
}

// MutualValueConfig parameterizes the value-domain mutual-consistency
// mechanisms of paper §4.2.
type MutualValueConfig struct {
	// Delta is the mutual tolerance δ on the drift of f. Required
	// (positive).
	Delta float64
	// F is the tracked function; defaults to DifferenceFunc.
	F Func
	// Bounds clamp computed TTRs; Min defaults to 10 s, Max to 60 min.
	Bounds TTRBounds
	// Weight and Alpha feed the Eq. 10 refinement pipeline, as in
	// AdaptiveTTRConfig. Both default to 0.5.
	Weight, Alpha float64
	// GammaDecrease scales the feedback factor γ down on each observed
	// violation (Eq. 12: TTR = γ·δ/r); must lie in (0,1), default 0.7.
	GammaDecrease float64
	// GammaIncrease scales γ back up (capped at 1) after each clean
	// poll; must be > 1, default 1.05.
	GammaIncrease float64
	// GammaMin floors γ; must lie in (0,1], default 0.1.
	GammaMin float64
	// NoChangeGrowth scales the previous TTR when a pair poll observes
	// no drift of f at all (zero rate carries no information); must be
	// > 1, default 2.
	NoChangeGrowth float64
}

func (c MutualValueConfig) withDefaults() MutualValueConfig {
	if c.Delta <= 0 {
		panic("core: mutual value policy requires a positive Delta")
	}
	if c.F == nil {
		c.F = DifferenceFunc{}
	}
	c.Bounds = NormalizeBounds(c.Bounds, DefaultValueTTRMin)
	if c.Weight == 0 {
		c.Weight = 0.5
	}
	if c.Weight < 0 || c.Weight > 1 {
		panic(fmt.Sprintf("core: mutual value weight %v outside (0,1]", c.Weight))
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		panic(fmt.Sprintf("core: mutual value alpha %v outside (0,1]", c.Alpha))
	}
	if c.GammaDecrease == 0 {
		c.GammaDecrease = 0.7
	}
	if c.GammaDecrease <= 0 || c.GammaDecrease >= 1 {
		panic(fmt.Sprintf("core: gamma decrease %v outside (0,1)", c.GammaDecrease))
	}
	if c.GammaIncrease == 0 {
		c.GammaIncrease = 1.05
	}
	if c.GammaIncrease <= 1 {
		panic(fmt.Sprintf("core: gamma increase %v must exceed 1", c.GammaIncrease))
	}
	if c.GammaMin == 0 {
		c.GammaMin = 0.1
	}
	if c.GammaMin <= 0 || c.GammaMin > 1 {
		panic(fmt.Sprintf("core: gamma min %v outside (0,1]", c.GammaMin))
	}
	if c.NoChangeGrowth == 0 {
		c.NoChangeGrowth = 2
	}
	if c.NoChangeGrowth <= 1 {
		panic(fmt.Sprintf("core: no-change growth %v must exceed 1", c.NoChangeGrowth))
	}
	return c
}

// MutualValueAdaptive is the paper's adaptive approach to M_v-consistency
// (§4.2, Eq. 11–12): it models f(a, b) as the value of a virtual object,
// estimates the rate at which f changes from consecutive pair polls, and
// schedules the next pair poll before f is expected to have drifted by δ.
// A feedback factor γ shrinks the estimates when violations are detected
// and relaxes them during clean stretches.
//
// Both members of the pair are polled together; each pair poll therefore
// costs two server polls.
type MutualValueAdaptive struct {
	cfg   MutualValueConfig
	gamma float64

	prevTTR time.Duration
	obsMin  stats.MinTracker

	violations uint64
	polls      uint64
}

// NewMutualValueAdaptive returns an adaptive virtual-object pair policy.
// It panics on invalid configuration.
func NewMutualValueAdaptive(cfg MutualValueConfig) *MutualValueAdaptive {
	m := &MutualValueAdaptive{cfg: cfg.withDefaults()}
	m.Reset()
	return m
}

// Name returns the identifier used in reports.
func (m *MutualValueAdaptive) Name() string { return "mutual-value-adaptive" }

// Config returns the normalized configuration.
func (m *MutualValueAdaptive) Config() MutualValueConfig { return m.cfg }

// Gamma returns the current feedback factor.
func (m *MutualValueAdaptive) Gamma() float64 { return m.gamma }

// DetectedViolations returns how many pair polls revealed that f had
// drifted by at least δ since the previous poll (the proxy-visible
// violation signal that drives γ).
func (m *MutualValueAdaptive) DetectedViolations() uint64 { return m.violations }

// InitialTTR returns the TTR used before the first pair outcome.
func (m *MutualValueAdaptive) InitialTTR() time.Duration { return m.cfg.Bounds.Min }

// Reset discards adaptive state.
func (m *MutualValueAdaptive) Reset() {
	m.gamma = 1
	m.prevTTR = m.cfg.Bounds.Min
	m.obsMin = stats.MinTracker{}
	m.violations = 0
	m.polls = 0
}

// RefreshTTR is the joint-poll counterpart of Refresh: it returns the
// time until the pair's next joint poll under the same first-poll rule —
// InitialTTR before the first fetch, NextTTR(o) after it.
func (m *MutualValueAdaptive) RefreshTTR(fetched bool, o PairOutcome) time.Duration {
	return nextTTR(m, fetched, o)
}

// NextTTR consumes a pair outcome and returns the time until the next
// pair poll.
func (m *MutualValueAdaptive) NextTTR(o PairOutcome) time.Duration {
	m.polls++
	elapsed := o.Now.Sub(o.Prev)
	if elapsed <= 0 {
		return m.prevTTR
	}

	fCur := m.cfg.F.Eval(o.ValueA, o.ValueB)
	fPrev := m.cfg.F.Eval(o.PrevValueA, o.PrevValueB)
	drift := fCur - fPrev
	if drift < 0 {
		drift = -drift
	}

	// Feedback: the poll itself reveals whether the cached f had
	// drifted past δ before we refreshed.
	if drift >= m.cfg.Delta {
		m.violations++
		m.gamma *= m.cfg.GammaDecrease
		if m.gamma < m.cfg.GammaMin {
			m.gamma = m.cfg.GammaMin
		}
	} else {
		m.gamma *= m.cfg.GammaIncrease
		if m.gamma > 1 {
			m.gamma = 1
		}
	}

	// Eq. 11: rate of change of f; Eq. 12: TTR = γ·δ/r.
	var est time.Duration
	if drift == 0 {
		// Zero observed rate carries no information: back off gently.
		est = time.Duration(float64(m.prevTTR) * m.cfg.NoChangeGrowth)
		if est > m.cfg.Bounds.Max || est <= 0 {
			est = m.cfg.Bounds.Max
		}
	} else {
		r := drift / float64(elapsed)
		est = time.Duration(m.gamma * m.cfg.Delta / r)
		if est < 0 {
			est = m.cfg.Bounds.Max
		}
		m.obsMin.Observe(float64(est))
	}

	// Eq. 10 refinement: smoothing, anchoring, clamping.
	smoothed := time.Duration(m.cfg.Weight*float64(est) + (1-m.cfg.Weight)*float64(m.prevTTR))
	final := smoothed
	if min, ok := m.obsMin.Value(); ok {
		final = time.Duration(m.cfg.Alpha*float64(smoothed) + (1-m.cfg.Alpha)*min)
	}
	final = m.cfg.Bounds.clamp(final)
	m.prevTTR = final
	return final
}

// MutualValuePartitioned is the paper's partitioned approach to
// M_v-consistency for the difference function (§4.2): split the mutual
// tolerance δ into per-object tolerances δ_a + δ_b = δ and enforce
// Δv-consistency on each object independently. By the triangle
// inequality, |(S_a−P_a) + (P_b−S_b)| ≤ |S_a−P_a| + |S_b−P_b| < δ_a + δ_b,
// so individual compliance implies mutual compliance.
//
// The split adapts to the objects' observed value-change rates: the
// faster-changing object receives the smaller tolerance
// (δ_a = δ·r_b/(r_a+r_b)), and the split is recomputed after every poll.
type MutualValuePartitioned struct {
	delta float64

	a, b *partitionedMember
}

// partitionedMember is one side of a partitioned pair: an AdaptiveTTR
// policy plus the rate bookkeeping used to re-apportion tolerances.
type partitionedMember struct {
	parent  *MutualValuePartitioned
	sibling *partitionedMember
	policy  *AdaptiveTTR
	rate    float64 // latest observed |dv/dt| in value units per second
}

// NewMutualValuePartitioned returns a partitioned pair controller. Both
// members start with an even δ/2 split. The cfg.F field is ignored: the
// partitioned reduction is valid exactly for the difference function, as
// derived in the paper.
func NewMutualValuePartitioned(cfg MutualValueConfig) *MutualValuePartitioned {
	cfg = cfg.withDefaults()
	mk := func() *AdaptiveTTR {
		return NewAdaptiveTTR(AdaptiveTTRConfig{
			Delta:  cfg.Delta / 2,
			Bounds: cfg.Bounds,
			Weight: cfg.Weight,
			Alpha:  cfg.Alpha,
		})
	}
	p := &MutualValuePartitioned{delta: cfg.Delta}
	p.a = &partitionedMember{parent: p, policy: mk()}
	p.b = &partitionedMember{parent: p, policy: mk()}
	p.a.sibling = p.b
	p.b.sibling = p.a
	return p
}

// Name returns the identifier used in reports.
func (p *MutualValuePartitioned) Name() string { return "mutual-value-partitioned" }

// Delta returns the total mutual tolerance δ.
func (p *MutualValuePartitioned) Delta() float64 { return p.delta }

// Deltas returns the current split (δ_a, δ_b). Their sum is always δ.
func (p *MutualValuePartitioned) Deltas() (float64, float64) {
	return p.a.policy.Delta(), p.b.policy.Delta()
}

// PolicyA returns the per-object policy for the first member. Register it
// with the proxy like any individual Δv policy.
func (p *MutualValuePartitioned) PolicyA() Policy { return p.a }

// PolicyB returns the per-object policy for the second member.
func (p *MutualValuePartitioned) PolicyB() Policy { return p.b }

// Reset discards adaptive state on both members and restores the even
// split.
func (p *MutualValuePartitioned) Reset() {
	p.a.reset()
	p.b.reset()
}

var _ Policy = (*partitionedMember)(nil)

func (m *partitionedMember) Name() string { return "partitioned-member" }

func (m *partitionedMember) InitialTTR() time.Duration { return m.policy.InitialTTR() }

func (m *partitionedMember) reset() {
	m.policy.Reset()
	m.policy.SetDelta(m.parent.delta / 2)
	m.rate = 0
}

func (m *partitionedMember) Reset() { m.parent.Reset() }

// NextTTR records this member's latest value-change rate, re-apportions
// the tolerance split accordingly, and delegates to the member's
// AdaptiveTTR with its fresh δ share.
func (m *partitionedMember) NextTTR(o PollOutcome) time.Duration {
	if elapsed := o.Now.Sub(o.Prev); elapsed > 0 {
		change := o.Value - o.PrevValue
		if change < 0 {
			change = -change
		}
		m.rate = change / elapsed.Seconds()
	}
	m.reapportion()
	return m.policy.NextTTR(o)
}

// reapportion recomputes δ_a and δ_b from the latest rates: the tolerance
// is split in inverse proportion to the rates, so the faster object gets
// the tighter share. With no rate information the split stays even.
func (m *partitionedMember) reapportion() {
	p := m.parent
	ra, rb := p.a.rate, p.b.rate
	total := ra + rb
	if total <= 0 {
		p.a.policy.SetDelta(p.delta / 2)
		p.b.policy.SetDelta(p.delta / 2)
		return
	}
	// Floor each share at 1% of δ so a completely quiescent object
	// cannot starve its sibling's tolerance entirely.
	const minShare = 0.01
	shareA := stats.Clamp(rb/total, minShare, 1-minShare)
	p.a.policy.SetDelta(p.delta * shareA)
	p.b.policy.SetDelta(p.delta * (1 - shareA))
}
