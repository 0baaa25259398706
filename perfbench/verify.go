package main

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Response classes the load generator splits latency by.
const (
	classHit    uint8 = iota // 200 GET served from the leaf's cache
	classMiss                // 200 GET the leaf had to fetch
	classNotMod              // 304
	classHead                // HEAD
	classOther               // failed before a status was read, or an unexpected status
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "notmod", "head", "other"}

// Verifier failure reasons.
const (
	failNone       = ""
	failTransport  = "transport"
	failStatus     = "status"
	failXCache     = "x-cache"
	failLastMod    = "last-modified"
	failBody       = "body"
	failBodyLM     = "body-last-modified-mismatch"
	failHeadLength = "head-length"
	failUnsolicit  = "unsolicited-304"
	fail304Since   = "304-before-last-modified"
)

// verdict is the verifier's judgement of one response.
type verdict struct {
	class uint8
	hit   bool   // X-Cache: HIT
	fail  string // failNone when the response is valid
	stale bool   // valid, but beyond the object's Δ (or Δv) tolerance
}

// verifier checks responses against the revisions the origin publishes,
// recomputed from the seed.
type verifier struct {
	s        *spec
	t0, base time.Time
	buf      []byte
}

func newVerifier(s *spec, t0, base time.Time) *verifier {
	return &verifier{s: s, t0: t0, base: base}
}

// published reports whether revision rev of o exists by instant at.
func (v *verifier) published(o *object, rev int, at time.Time) bool {
	return rev == 0 || !v.t0.Add(o.updates[rev-1]).After(at)
}

// check judges one response to req. due is the request's intended send
// instant and done its completion.
func (v *verifier) check(req *request, status int, h http.Header, body []byte, due, done time.Time) verdict {
	var vd verdict
	switch {
	case req.method == methodHead:
		vd.class = classHead
	case status == http.StatusNotModified:
		vd.class = classNotMod
	}
	xc := h.Get("X-Cache")
	vd.hit = xc == "HIT"
	switch xc {
	case "HIT", "GRACE":
		if vd.class == classHit || vd.class == classMiss {
			vd.class = classHit
		}
	case "MISS", "BYPASS":
		if vd.class == classHit {
			vd.class = classMiss
		}
	default:
		vd.fail = failXCache
	}
	if status != http.StatusOK && status != http.StatusNotModified {
		vd.class, vd.fail = classOther, failStatus
		return vd
	}
	if vd.fail != failNone {
		return vd
	}
	obj := int(req.obj)
	o := &v.s.objects[obj]
	lm, err := http.ParseTime(h.Get("Last-Modified"))
	if err != nil {
		vd.fail = failLastMod
		return vd
	}
	rev, ok := o.revForLastModified(lm, v.t0, v.base)
	if !ok || !v.published(o, rev, done) {
		vd.fail = failLastMod
		return vd
	}
	switch {
	case status == http.StatusNotModified:
		if req.method != methodIMS {
			vd.fail = failUnsolicit
			return vd
		}
		if o.lastModified(int(req.imsRev), v.t0, v.base).Before(lm) {
			vd.fail = fail304Since
			return vd
		}
	case req.method == methodHead:
		if h.Get("Content-Length") != strconv.Itoa(v.s.bodyLen(obj, rev)) {
			vd.fail = failHeadLength
			return vd
		}
	default:
		v.buf = v.s.body(v.buf, obj, rev)
		if !bytes.Equal(body, v.buf) {
			// A body that is another published revision under this
			// Last-Modified is an inconsistency of its own: later
			// If-Modified-Since requests and 304s key on the header.
			vd.fail = failBody
			for r := o.revisions() - 1; r >= 0; r-- {
				if !v.published(o, r, done) {
					continue
				}
				if v.buf = v.s.body(v.buf, obj, r); bytes.Equal(body, v.buf) {
					vd.fail = failBodyLM
					break
				}
			}
			return vd
		}
	}
	vd.stale = v.stale(o, rev, due, done)
	return vd
}

// stale reports whether serving revision rev at due breaks the object's
// tolerance: for a temporal object, the next revision was published more
// than Δ before the request was due; for a value object, the served
// value is more than Δv from the origin's value both when the request
// was due and when it completed.
func (v *verifier) stale(o *object, rev int, due, done time.Time) bool {
	if o.kind == kindQuote {
		at := func(t time.Time) float64 { return o.values[o.revAt(t.Sub(v.t0))] }
		served := o.values[rev]
		return math.Abs(served-at(due)) > o.valueDelta+1e-9 &&
			math.Abs(served-at(done)) > o.valueDelta+1e-9
	}
	if rev >= len(o.updates) {
		return false
	}
	return due.Sub(v.t0.Add(o.updates[rev])) > o.delta
}
