// Command diskcheck validates a persistent disk tier directory
// (mcproxy -disk-dir) without opening it for writing: the metadata
// journal must parse — a torn tail from a crash mid-append is
// tolerated, anything else is corruption — and every live record's body
// must lie within its pack file and match the recorded content digest. The
// crash-consistency smoke (scripts/disk-crash-smoke.sh) runs it against
// a SIGKILLed proxy's directory before restarting over it.
//
//	diskcheck /var/cache/mcproxy
//
// On success it prints the live record count; on failure it prints what
// disagrees and exits nonzero.
package main

import (
	"fmt"
	"os"

	"broadway/internal/diskstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diskcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: diskcheck <disk-dir>")
	}
	dir := args[0]
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	n, err := diskstore.Verify(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ok: %d records, index and packs agree\n", n)
	return nil
}
