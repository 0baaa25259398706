package webproxy

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/simtime"
)

// armedInstant reads the dispatcher's armed instant.
func (p *Proxy) armedInstant() simtime.Time {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	return p.armedAt
}

// waitArmed waits until the dispatcher has made a pass armed for at,
// and returns the pass count then.
func waitArmed(t *testing.T, px *Proxy, at time.Time) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for px.armedInstant() != px.toSim(at) {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher armed for %v, want %v", px.armedInstant(), px.toSim(at))
		}
		time.Sleep(time.Millisecond)
	}
	return px.dispatchPasses.Load()
}

// TestDispatcherWakesOnlyForEarlierPolls: on the stepped clock, with
// the dispatcher armed for the first admission's poll, admissions whose
// first polls fall at or after that instant cost no dispatcher pass. A
// poll booked before it wakes the dispatcher, which re-arms for it, so
// the poll still runs at its instant (the old armed instant is an hour
// of wall time away: only the wake can get the poll done in time).
func TestDispatcherWakesOnlyForEarlierPolls(t *testing.T) {
	clk := newSimClock()
	origin := newCountingOrigin()
	for i := 0; i < 16; i++ {
		origin.set(fmt.Sprintf("/o/%d", i), "body", clk.Now())
	}
	srv := httptest.NewServer(origin)
	t.Cleanup(srv.Close)
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var polled []PollObservation
	px, err := New(Config{
		Origin:       u,
		Clock:        clk.Now,
		PollWorkers:  1,
		DefaultDelta: time.Hour,
		Bounds:       core.TTRBounds{Min: time.Hour, Max: 2 * time.Hour},
		PollObserver: func(o PollObservation) {
			if !o.Initial {
				mu.Lock()
				polled = append(polled, o)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	px.Start()
	t.Cleanup(px.Close)
	clk.AdvanceTo(clk.base.Add(time.Minute))

	// The first admission books a poll before the empty heap's armed
	// instant (an hour from the dispatcher's last look, at the epoch).
	proxyGet(t, px, "/o/0")
	first := px.scheduledNextAt(px.lookup("/o/0"))
	passes := waitArmed(t, px, first)

	for i := 1; i < 16; i++ {
		clk.AdvanceTo(clk.Now().Add(time.Second))
		proxyGet(t, px, fmt.Sprintf("/o/%d", i))
	}
	time.Sleep(20 * time.Millisecond) // room for a wake to be served
	if got := px.dispatchPasses.Load(); got != passes {
		t.Fatalf("15 admissions polled after the armed instant cost %d dispatcher passes, want 0", got-passes)
	}

	// Book /o/7 before the armed instant, then step the clock there
	// without a Kick: the re-armed timer must pop it.
	e := px.lookup("/o/7")
	at := clk.Now().Add(20 * time.Millisecond)
	px.reschedule(e, at)
	if got := waitArmed(t, px, at); got == passes {
		t.Fatal("a poll booked before the armed instant did not wake the dispatcher")
	}
	clk.AdvanceTo(at)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(polled)
		var got PollObservation
		if n > 0 {
			got = polled[0]
		}
		mu.Unlock()
		if n > 0 {
			if got.Key != "/o/7" || !got.At.Equal(at) {
				t.Fatalf("first poll = %s at %v, want /o/7 at %v", got.Key, got.At, at)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the poll booked before the armed instant never ran")
		}
		time.Sleep(time.Millisecond)
	}
}
