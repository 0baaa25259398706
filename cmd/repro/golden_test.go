package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite cmd/repro/testdata goldens from the current code")

// outDirToken replaces the temporary -out directory in the golden stdout
// so the comparison does not depend on where the test ran.
const outDirToken = "<OUT>"

// TestAblationsGolden pins `repro -ablations` — the report on stdout and
// every CSV series — byte for byte. A refactor of the simulator, the
// policies or the experiments must leave this output unchanged; a
// deliberate behaviour change regenerates the goldens with
// `go test ./cmd/repro -run TestAblationsGolden -update`.
func TestAblationsGolden(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-ablations", "-out", dir}, &stdout); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{
		"stdout.txt": []byte(strings.ReplaceAll(stdout.String(), dir, outDirToken)),
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range csvs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(p)] = data
	}

	golden := filepath.Join("testdata", "ablations")
	if *updateGolden {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(golden, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	entries, err := os.ReadDir(golden)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update): %v", err)
	}
	want := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want[e.Name()] = data
	}
	for _, name := range sortedKeys(want) {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in goldens but not written by this run", name)
			continue
		}
		if !bytes.Equal(g, want[name]) {
			t.Errorf("%s: differs from golden (%d bytes, golden %d bytes) at line %d",
				name, len(g), len(want[name]), firstDiffLine(g, want[name]))
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written by this run but has no golden", name)
		}
	}
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// firstDiffLine returns the 1-based line on which a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return line
		}
		if a[i] == '\n' {
			line++
		}
	}
	return line
}
