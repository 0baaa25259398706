// Command perfbench is broadway's end-to-end benchmark: an open-loop
// load generator against a real-socket origin → relay → leaf hierarchy.
// See README.md.
//
//	perfbench -workload read-hot -seed 1 -seconds 10 -trace 0
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		if err := runLoadgen(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench loadgen:", err)
			os.Exit(1)
		}
		return
	}
	code, err := runHost(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}
