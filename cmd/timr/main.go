// Command timr fronts the TiMR reproduction as subcommands:
//
//	timr run        one-shot temporal queries over advertising logs on
//	                the simulated map-reduce cluster (the original mode)
//	timr serve      long-running serving tier: score arriving ad events
//	                against the trained BT model under an open-loop Zipf
//	                load, on a fixed set of hash partitions
//	timr refresh    incremental BT maintenance: ingest the log one day at
//	                a time, merging summaries instead of recomputing, and
//	                resume a killed run from its durable state
//
// Usage:
//
//	timr run -q clickcount [-window 6h] [-in events.tsv] [-machines N]
//	timr run -q bt         [-in events.tsv] [-machines N] [-z 1.28]
//	timr run -sql "SELECT AdId, COUNT(*) AS C FROM events WHERE StreamId = 1
//	               GROUP BY AdId WINDOW 6h" [-in events.tsv]
//	timr serve [-requests N] [-rate R] [-machines N] [-durdir DIR] [-metrics]
//	timr refresh [-days N] [-durdir DIR] [-metrics]
package main

import (
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "run":
			runCmd(args[1:])
			return
		case "serve":
			serveCmd(args[1:])
			return
		case "refresh":
			refreshCmd(args[1:])
			return
		case "help", "-h", "-help", "--help":
			usage()
			return
		}
	}
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: timr <run|serve|refresh> [flags]\n\nrun flags:")
	runFlags(nil).PrintDefaults()
	fmt.Fprintln(os.Stderr, "\nserve flags:")
	serveFlags(nil).PrintDefaults()
	fmt.Fprintln(os.Stderr, "\nrefresh flags:")
	refreshFlags(nil).PrintDefaults()
}
