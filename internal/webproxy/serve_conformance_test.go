package webproxy

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// This file is the HTTP-conformance battery for the serve path (RFC
// 9110): HEAD support on cached objects, Allow headers on genuine 405s,
// and the generic 502 whose upstream detail lives on the operator
// surface instead of the client response.

// TestHEADServesCachedHeadersWithoutBody: a HEAD on a cached object must
// answer with the entry's headers — Content-Type, Content-Length,
// Last-Modified, X-Cache: HIT — and no body, instead of the 405 the
// proxy used to return.
func TestHEADServesCachedHeadersWithoutBody(t *testing.T) {
	s := newLiveSetup(t, nil, Config{})
	s.origin.Set("/page", []byte("hello head"), "text/plain")
	s.get(t, "/page") // warm the cache

	resp, err := http.Head(s.proxySrv.URL + "/page")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD on cached object = %d", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("HEAD carried %d body bytes: %q", len(body), body)
	}
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("X-Cache = %q, want HIT", got)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len("hello head")) {
		t.Errorf("Content-Length = %q, want the cached body's length", got)
	}
	if resp.Header.Get("Last-Modified") == "" {
		t.Error("HEAD response lost Last-Modified")
	}
}

// TestHEADOnColdObjectAdmits: a HEAD miss runs the normal admission path
// (the object becomes resident) but still returns no body.
func TestHEADOnColdObjectAdmits(t *testing.T) {
	s := newLiveSetup(t, nil, Config{})
	s.origin.Set("/cold", []byte("cold body"), "text/plain")

	resp, err := http.Head(s.proxySrv.URL + "/cold")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("HEAD miss = %d with %d body bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Errorf("X-Cache = %q, want MISS", resp.Header.Get("X-Cache"))
	}
	// The admission was real: a follow-up GET is a hit.
	_, hdr := s.get(t, "/cold")
	if hdr.Get("X-Cache") != "HIT" {
		t.Errorf("GET after HEAD admission X-Cache = %q, want HIT", hdr.Get("X-Cache"))
	}
}

// TestMethodNotAllowedSetsAllow: genuine 405s carry the Allow header, on
// the proxy and on the origin's serve path alike.
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	s := newLiveSetup(t, nil, Config{})
	s.origin.Set("/page", []byte("x"), "text/plain")

	for name, target := range map[string]string{
		"proxy":  s.proxySrv.URL + "/page",
		"origin": s.originSrv.URL + "/page",
	} {
		resp, err := http.Post(target, "text/plain", strings.NewReader("nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s POST = %d, want 405", name, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("%s 405 Allow = %q, want \"GET, HEAD\"", name, allow)
		}
	}
}

// TestBadGatewayBodyIsGeneric: a failed upstream fetch must not leak the
// raw error string to the client; the detail is recorded on
// UpstreamStatus (and counted on CacheStats) for the operator surface.
func TestBadGatewayBodyIsGeneric(t *testing.T) {
	s := newLiveSetup(t, nil, Config{})
	s.originSrv.CloseClientConnections()
	s.originSrv.Close()

	resp, err := http.Get(s.proxySrv.URL + "/unreachable")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("miss against dead origin = %d", resp.StatusCode)
	}
	if strings.TrimSpace(string(body)) != "upstream fetch failed" {
		t.Errorf("502 body = %q, want the generic message only", body)
	}

	us := s.proxy.UpstreamStatus()
	if us.Errors == 0 {
		t.Error("UpstreamStatus.Errors not incremented")
	}
	if us.LastError == "" {
		t.Error("UpstreamStatus.LastError empty; the detail must live on the operator surface")
	}
	if us.LastErrorAt.IsZero() || !us.LastErrorAt.After(us.LastOKAt) {
		t.Errorf("UpstreamStatus times: err at %v, ok at %v", us.LastErrorAt, us.LastOKAt)
	}
}
