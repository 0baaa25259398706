package eventq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"broadway/internal/simtime"
)

func at(d time.Duration) simtime.Time { return simtime.At(d) }

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Error("fresh queue not empty")
	}
	if q.Pop() != nil {
		t.Error("Pop on empty queue must return nil")
	}
	if q.Peek() != nil {
		t.Error("Peek on empty queue must return nil")
	}
}

func TestPopOrderByTime(t *testing.T) {
	var q Queue
	q.Push(at(3*time.Second), "c")
	q.Push(at(1*time.Second), "a")
	q.Push(at(2*time.Second), "b")

	var got []string
	for it := q.Pop(); it != nil; it = q.Pop() {
		got = append(got, it.Payload.(string))
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOForEqualTimes(t *testing.T) {
	var q Queue
	const n = 50
	for i := 0; i < n; i++ {
		q.Push(at(time.Second), i)
	}
	for i := 0; i < n; i++ {
		it := q.Pop()
		if it.Payload.(int) != i {
			t.Fatalf("tie-break not FIFO: got %d at position %d", it.Payload, i)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(at(time.Second), "x")
	if q.Peek().Payload.(string) != "x" {
		t.Fatal("Peek wrong item")
	}
	if q.Len() != 1 {
		t.Fatal("Peek must not remove")
	}
	if q.Pop().Payload.(string) != "x" {
		t.Fatal("Pop after Peek wrong item")
	}
}

func TestRemove(t *testing.T) {
	var q Queue
	a := q.Push(at(1*time.Second), "a")
	b := q.Push(at(2*time.Second), "b")
	c := q.Push(at(3*time.Second), "c")

	if !q.Remove(b) {
		t.Fatal("Remove of pending item must return true")
	}
	if q.Remove(b) {
		t.Fatal("second Remove must return false")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after remove", q.Len())
	}
	if got := q.Pop(); got != a {
		t.Fatalf("first pop = %v", got.Payload)
	}
	if got := q.Pop(); got != c {
		t.Fatalf("second pop = %v", got.Payload)
	}
	if q.Remove(a) {
		t.Fatal("Remove of already-popped item must return false")
	}
	if q.Remove(nil) {
		t.Fatal("Remove(nil) must return false")
	}
}

func TestRemoveHead(t *testing.T) {
	var q Queue
	a := q.Push(at(1*time.Second), "a")
	q.Push(at(2*time.Second), "b")
	if !q.Remove(a) {
		t.Fatal("Remove head failed")
	}
	if q.Pop().Payload.(string) != "b" {
		t.Fatal("wrong item after removing head")
	}
}

func TestPopDue(t *testing.T) {
	cases := []struct {
		name string
		push []time.Duration // instants pushed, payload = position
		now  time.Duration
		want []int // payloads PopDue returns, in order, before it yields nil
	}{
		{"empty", nil, time.Hour, nil},
		{"nothing due", []time.Duration{time.Second, time.Minute}, 0, nil},
		{"due at the instant", []time.Duration{time.Second, time.Minute}, time.Second, []int{0}},
		{"late item stays", []time.Duration{time.Minute, time.Second}, 2 * time.Second, []int{1}},
		{"all due, ties FIFO", []time.Duration{time.Second, 0, time.Second, 0}, time.Minute, []int{1, 3, 0, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue
			for i, d := range tc.push {
				q.Push(at(d), i)
			}
			var got []int
			for it := q.PopDue(at(tc.now)); it != nil; it = q.PopDue(at(tc.now)) {
				got = append(got, it.Payload.(int))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("PopDue order = %v, want %v", got, tc.want)
			}
			if q.Len() != len(tc.push)-len(tc.want) {
				t.Errorf("Len = %d, want %d", q.Len(), len(tc.push)-len(tc.want))
			}
		})
	}
}

func TestReschedule(t *testing.T) {
	cases := []struct {
		name  string
		to    time.Duration // new instant for item "a" (pushed at 1s; "b" at 2s, "c" at 3s)
		order string        // resulting pop order
	}{
		{"later", 5 * time.Second, "bca"},
		{"earlier", 0, "abc"},
		{"between", 2500 * time.Millisecond, "bac"},
		{"tie keeps insertion rank", 2 * time.Second, "abc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue
			a := q.Push(at(time.Second), "a")
			q.Push(at(2*time.Second), "b")
			q.Push(at(3*time.Second), "c")
			if !q.Reschedule(a, at(tc.to)) {
				t.Fatal("Reschedule of a pending item must return true")
			}
			var got string
			for it := q.Pop(); it != nil; it = q.Pop() {
				got += it.Payload.(string)
				if it == a && it.At != at(tc.to) {
					t.Errorf("rescheduled item fired at %v, want %v", it.At, at(tc.to))
				}
			}
			if got != tc.order {
				t.Errorf("pop order = %q, want %q", got, tc.order)
			}
			if q.Reschedule(a, at(time.Second)) {
				t.Error("Reschedule of a popped item must return false")
			}
		})
	}
	var q Queue
	if q.Reschedule(nil, 0) {
		t.Error("Reschedule(nil) must return false")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue
	q.Push(at(5*time.Second), 5)
	q.Push(at(1*time.Second), 1)
	if got := q.Pop().Payload.(int); got != 1 {
		t.Fatalf("got %d", got)
	}
	q.Push(at(3*time.Second), 3)
	q.Push(at(2*time.Second), 2)
	for _, want := range []int{2, 3, 5} {
		if got := q.Pop().Payload.(int); got != want {
			t.Fatalf("got %d, want %d", got, want)
		}
	}
}

func TestPropertyDequeueSorted(t *testing.T) {
	f := func(times []uint32) bool {
		var q Queue
		for _, v := range times {
			q.Push(simtime.Time(v), v)
		}
		prev := simtime.Time(-1)
		for it := q.Pop(); it != nil; it = q.Pop() {
			if it.At < prev {
				return false
			}
			prev = it.At
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMatchesSort(t *testing.T) {
	f := func(times []uint16) bool {
		var q Queue
		for _, v := range times {
			q.Push(simtime.Time(v), nil)
		}
		want := make([]simtime.Time, len(times))
		for i, v := range times {
			want[i] = simtime.Time(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; i < len(want); i++ {
			if got := q.Pop(); got.At != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomRemovalsKeepOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue
	var items []*Item
	for i := 0; i < 500; i++ {
		items = append(items, q.Push(simtime.Time(rng.Intn(1000)), i))
	}
	removed := map[*Item]bool{}
	for i := 0; i < 200; i++ {
		it := items[rng.Intn(len(items))]
		if !removed[it] {
			if !q.Remove(it) {
				t.Fatal("remove of pending item failed")
			}
			removed[it] = true
		}
	}
	prev := simtime.Time(-1)
	count := 0
	for it := q.Pop(); it != nil; it = q.Pop() {
		if removed[it] {
			t.Fatal("popped a removed item")
		}
		if it.At < prev {
			t.Fatal("ordering violated after removals")
		}
		prev = it.At
		count++
	}
	if count != 500-len(removedKeys(removed)) {
		t.Fatalf("popped %d items, want %d", count, 500-len(removedKeys(removed)))
	}
}

func removedKeys(m map[*Item]bool) []*Item {
	out := make([]*Item, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(simtime.Time(rng.Intn(1<<20)), nil)
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}
