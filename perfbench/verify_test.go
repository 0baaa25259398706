package main

import (
	"net/http"
	"strconv"
	"testing"
	"time"
)

// TestVerifier feeds the verifier valid responses and forged ones; each
// forgery must be caught with its own reason.
func TestVerifier(t *testing.T) {
	s, err := newSpec("update-mix", 1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := -1
	for i := range s.objects {
		if o := &s.objects[i]; o.kind == kindPage && len(o.updates) > 0 {
			obj = i
			break
		}
	}
	if obj < 0 {
		t.Fatal("no updated page in the spec")
	}
	o := &s.objects[obj]
	t0 := time.Unix(1_800_000_000, 0)
	base := t0.Add(-time.Hour)
	v := newVerifier(s, t0, base)
	upd := t0.Add(o.updates[0])
	after := upd.Add(time.Second)

	header := func(rev int, xcache string) http.Header {
		h := http.Header{}
		h.Set("X-Cache", xcache)
		h.Set("Last-Modified", o.lastModified(rev, t0, base).UTC().Format(http.TimeFormat))
		return h
	}
	get := &request{obj: int32(obj), method: methodGet, target: o.path}
	ims := &request{obj: int32(obj), method: methodIMS, imsRev: 1, target: o.path}
	imsOld := &request{obj: int32(obj), method: methodIMS, imsRev: 0, target: o.path}
	head := &request{obj: int32(obj), method: methodHead, target: o.path}

	body1 := s.body(nil, obj, 1)
	forged := append([]byte(nil), body1...)
	forged[len(forged)-1] ^= 1
	headOK := header(1, "HIT")
	headOK.Set("Content-Length", strconv.Itoa(len(body1)))
	headBad := header(1, "HIT")
	headBad.Set("Content-Length", strconv.Itoa(len(body1)+1))

	cases := []struct {
		name   string
		req    *request
		status int
		h      http.Header
		body   []byte
		due    time.Time
		want   string
		class  uint8
	}{
		{"valid hit", get, 200, header(1, "HIT"), body1, after, failNone, classHit},
		{"valid miss", get, 200, header(0, "MISS"), s.body(nil, obj, 0), upd.Add(-time.Second), failNone, classMiss},
		{"forged body", get, 200, header(1, "HIT"), forged, after, failBody, classHit},
		{"new body under old Last-Modified", get, 200, header(0, "HIT"), body1, after, failBodyLM, classHit},
		{"old body under new Last-Modified", get, 200, header(1, "HIT"), s.body(nil, obj, 0), after, failBodyLM, classHit},
		{"valid head", head, 200, headOK, nil, after, failNone, classHead},
		{"wrong-length head", head, 200, headBad, nil, after, failHeadLength, classHead},
		{"valid 304", ims, 304, header(1, "HIT"), nil, after, failNone, classNotMod},
		{"unsolicited 304", get, 304, header(1, "HIT"), nil, after, failUnsolicit, classNotMod},
		{"304 older than Last-Modified", imsOld, 304, header(1, "HIT"), nil, after, fail304Since, classNotMod},
		{"unknown X-Cache", get, 200, header(1, "STALE"), body1, after, failXCache, classHit},
		{"unpublished revision", get, 200, header(1, "HIT"), body1, upd.Add(-2 * time.Second), failLastMod, classHit},
		{"error status", get, 502, http.Header{"X-Cache": {"MISS"}}, nil, after, failStatus, classOther},
	}
	for _, c := range cases {
		vd := v.check(c.req, c.status, c.h, c.body, c.due, c.due)
		if vd.fail != c.want || vd.class != c.class {
			t.Errorf("%s: got fail=%q class=%d, want fail=%q class=%d", c.name, vd.fail, vd.class, c.want, c.class)
		}
	}

	// Serving revision 0 more than Δ after revision 1 was published is
	// valid but stale; within Δ it is fresh.
	body0 := s.body(nil, obj, 0)
	late := upd.Add(o.delta + time.Second)
	if vd := v.check(get, 200, header(0, "HIT"), body0, late, late); vd.fail != failNone || !vd.stale {
		t.Errorf("revision 0 at update+Δ+1s: fail=%q stale=%v, want valid and stale", vd.fail, vd.stale)
	}
	early := upd.Add(o.delta / 2)
	if vd := v.check(get, 200, header(0, "HIT"), body0, early, early); vd.fail != failNone || vd.stale {
		t.Errorf("revision 0 within Δ: fail=%q stale=%v, want valid and fresh", vd.fail, vd.stale)
	}
}
