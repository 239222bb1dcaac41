// Command icbench is the iCrowd serving benchmark. It runs one named
// workload with a given seed against icrowd-server (or icrowd-router over
// shards) built from this checkout, drives it from an open-loop generator
// in its own process, checks the outputs against the simulator's ground
// truth, and prints every metric by name with its unit; the last line of
// its output is one JSON object. See README.md.
//
// The same binary also hosts the benchmark's helper processes:
//
//	icbench gen   -config FILE -out FILE   the load generator
//	icbench serve -addr ADDR -data-dir DIR the traced in-process server
//	icbench route -addr ADDR -shards URLS  the traced in-process router
package main

import "os"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "gen":
			os.Exit(genMain(os.Args[2:]))
		case "serve":
			os.Exit(serveMain(os.Args[2:]))
		case "route":
			os.Exit(routeMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}
