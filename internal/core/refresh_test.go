package core

import (
	"reflect"
	"testing"
	"time"

	"broadway/internal/simtime"
)

// recordingPolicy is a Policy that records every NextTTR call.
type recordingPolicy struct {
	initial, next time.Duration
	seen          []PollOutcome
}

func (r *recordingPolicy) Name() string              { return "recording" }
func (r *recordingPolicy) InitialTTR() time.Duration { return r.initial }
func (r *recordingPolicy) Reset()                    {}
func (r *recordingPolicy) NextTTR(o PollOutcome) time.Duration {
	r.seen = append(r.seen, o)
	return r.next
}

func TestRefreshStep(t *testing.T) {
	const initial, next = time.Minute, 7 * time.Minute
	fetched := ObjectState{ValidatedAt: simtime.At(time.Hour), Value: 10, Fetched: true}
	now := simtime.At(2 * time.Hour)
	cases := []struct {
		name        string
		st          ObjectState
		kind        PollKind
		modified    bool
		wantPolicy  int // NextTTR calls
		wantResched bool
		wantTTR     time.Duration
		wantTrigger bool
	}{
		{"first fetch starts at InitialTTR", ObjectState{}, PollRegular, true, 0, true, initial, false},
		{"regular poll feeds the policy", fetched, PollRegular, false, 1, true, next, false},
		{"regular poll finding an update triggers", fetched, PollRegular, true, 1, true, next, true},
		{"triggered poll never triggers", fetched, PollTriggered, true, 0, false, 0, false},
		{"pushed update triggers", fetched, PollPushed, true, 0, false, 0, true},
		{"pushed confirmation of nothing", fetched, PollPushed, false, 0, false, 0, false},
		{"pushed first fetch", ObjectState{}, PollPushed, true, 0, false, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := &recordingPolicy{initial: initial, next: next}
			s := Refresh(pol, tc.st, tc.kind, now, Observation{Modified: tc.modified})
			if len(pol.seen) != tc.wantPolicy {
				t.Errorf("NextTTR calls = %d, want %d", len(pol.seen), tc.wantPolicy)
			}
			if s.Reschedule != tc.wantResched || s.TTR != tc.wantTTR {
				t.Errorf("reschedule = %v after %v, want %v after %v", s.Reschedule, s.TTR, tc.wantResched, tc.wantTTR)
			}
			if s.Trigger != tc.wantTrigger {
				t.Errorf("Trigger = %v, want %v", s.Trigger, tc.wantTrigger)
			}
			if s.State.ValidatedAt != now || !s.State.Fetched {
				t.Errorf("state after step = %+v, want validated at %v and fetched", s.State, now)
			}
		})
	}
}

func TestRefreshStepOutcome(t *testing.T) {
	pol := &recordingPolicy{initial: time.Minute, next: time.Minute}
	st := ObjectState{ValidatedAt: simtime.At(time.Hour), Value: 10, Fetched: true}
	hist := []simtime.Time{simtime.At(70 * time.Minute), simtime.At(80 * time.Minute)}
	obs := Observation{
		Modified: true, LastModified: hist[1], HasLastModified: true,
		History: hist, HasValue: true, Value: 12.5,
	}
	s := Refresh(pol, st, PollRegular, simtime.At(90*time.Minute), obs)
	want := PollOutcome{
		Now: simtime.At(90 * time.Minute), Prev: simtime.At(time.Hour),
		Modified: true, LastModified: hist[1], HasLastModified: true, History: hist,
		HasValue: true, Value: 12.5, PrevValue: 10,
	}
	if got := s.Outcome; !reflect.DeepEqual(got, want) {
		t.Errorf("Outcome = %+v, want %+v", got, want)
	}
	if len(pol.seen) != 1 || pol.seen[0].PrevValue != 10 {
		t.Errorf("policy saw %+v", pol.seen)
	}
	if s.State.Value != 12.5 {
		t.Errorf("cached value after step = %v, want 12.5", s.State.Value)
	}

	// A contact that carries no value keeps the cached one.
	s = Refresh(nil, s.State, PollTriggered, simtime.At(95*time.Minute), Observation{})
	if s.State.Value != 12.5 || s.Outcome.PrevValue != 12.5 {
		t.Errorf("valueless contact changed the cached value: %+v", s)
	}
}

func TestPairRefreshTTRFirstPollRule(t *testing.T) {
	m := NewMutualValueAdaptive(MutualValueConfig{
		Delta:  1,
		Bounds: TTRBounds{Min: time.Minute, Max: time.Hour},
	})
	o := PairOutcome{
		Now: simtime.At(10 * time.Minute), Prev: 0,
		ValueA: 5, ValueB: 1, PrevValueA: 1, PrevValueB: 1,
	}
	if got := m.RefreshTTR(false, o); got != m.InitialTTR() {
		t.Errorf("first joint poll TTR = %v, want InitialTTR %v", got, m.InitialTTR())
	}
	if m.DetectedViolations() != 0 {
		t.Error("the first joint poll must not feed the pair policy")
	}
	m.RefreshTTR(true, o)
	if m.DetectedViolations() != 1 {
		t.Errorf("later joint poll: violations = %d, want the outcome consumed", m.DetectedViolations())
	}
}

func TestTriggersSelectsMembers(t *testing.T) {
	now := simtime.At(time.Hour)
	far := GroupMember{ValidatedAt: simtime.At(30 * time.Minute), NextPoll: simtime.At(90 * time.Minute)}
	member := func(id ObjectID, base GroupMember) GroupMember { base.ID = id; return base }
	members := []GroupMember{
		member("a", far), // the updated object itself
		member("b", far),
		member("recent", GroupMember{ValidatedAt: now.Add(-time.Minute), NextPoll: simtime.At(2 * time.Hour)}),
		member("soon", GroupMember{ValidatedAt: simtime.At(0), NextPoll: now.Add(time.Minute)}),
		member("busy", GroupMember{ValidatedAt: simtime.At(0), NextPoll: simtime.At(2 * time.Hour), Busy: true}),
		member("c", far),
	}
	id := func(m GroupMember) GroupMember { return m }

	c := newController(TriggerAll)
	got := Triggers(c, "a", now, members, id)
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "c" {
		t.Fatalf("Triggers = %+v, want [b c] in member order", got)
	}
	if c.Triggered() != 2 {
		t.Errorf("controller counted %d triggers, want 2", c.Triggered())
	}
	if got := Triggers(newController(TriggerNone), "a", now, members, id); len(got) != 0 {
		t.Errorf("baseline Triggers = %+v, want none", got)
	}
}
