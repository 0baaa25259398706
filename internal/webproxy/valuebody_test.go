package webproxy

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// parseValueBodyString is the string-first reference parseValueBody
// must agree with: trim as a string, then length-check and parse.
func parseValueBodyString(body []byte) (float64, bool) {
	s := strings.TrimSpace(string(body))
	if s == "" || len(s) > 64 {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func TestParseValueBodyMatchesStringTrim(t *testing.T) {
	digits64 := "1." + strings.Repeat("5", 62)
	cases := []string{
		"",
		" ",
		"\n\t \r",
		"165.38\n",
		"  -0.5  ",
		"1e3",
		"0x1p-2",
		"1_000",
		"\u00a042\u2003",      // NO-BREAK SPACE and EM SPACE trim
		"\u200b42",            // ZERO WIDTH SPACE is not white space
		"\u30007.25\u2028",    // IDEOGRAPHIC SPACE, LINE SEPARATOR
		"\xff1.0",             // invalid UTF-8 is not trimmed
		"1.0\x85",             // a lone 0x85 byte is not NEL
		"\u0085" + "3",        // NEL is
		digits64,              // exactly 64 bytes
		digits64 + "5",        // 65 bytes
		" " + digits64 + "\n", // 64 bytes once trimmed
		"NaN", "nan", "+Inf", "-inf", "infinity", "Infinity\n",
		"1e400", "-1e400", "4.9e-325",
		"12 34",
		"not a number",
		strings.Repeat("9", 65),
	}
	for _, c := range cases {
		gotV, gotOK := parseValueBody([]byte(c))
		wantV, wantOK := parseValueBodyString([]byte(c))
		same := gotV == wantV || (math.IsNaN(gotV) && math.IsNaN(wantV))
		if gotOK != wantOK || !same {
			t.Errorf("parseValueBody(%q) = %v, %v; string trim gives %v, %v", c, gotV, gotOK, wantV, wantOK)
		}
	}
	if _, ok := parseValueBody(nil); ok {
		t.Error("nil body parsed as a value")
	}
	if v, ok := parseValueBody([]byte(digits64)); !ok || v != 1.5555555555555556 {
		t.Errorf("64-byte value = %v, %v", v, ok)
	}
	if _, ok := parseValueBody([]byte(digits64 + "5")); ok {
		t.Error("65-byte value parsed")
	}
}

// TestParseValueBodyLargeBodyNoAlloc: the common case — a large body
// that is not a number — is rejected without copying it.
func TestParseValueBodyLargeBodyNoAlloc(t *testing.T) {
	body := []byte(strings.Repeat("<p>not a number</p>", 64<<10/19+1))[:64<<10]
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := parseValueBody(body); ok {
			t.Fatal("64 KiB body parsed as a value")
		}
	}); allocs != 0 {
		t.Errorf("parseValueBody allocated %v times on a 64 KiB body, want 0", allocs)
	}
}
