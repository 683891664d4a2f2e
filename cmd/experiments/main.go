// Command experiments regenerates the paper's evaluation tables and
// figures (§V) on synthetic data.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-machines N] [name ...]
//
// With no names, every experiment runs in presentation order. An unknown
// name exits 2 and prints the known ones.
// Results for the default (full) scale are recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"timr/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale (~15s instead of minutes)")
	seed := flag.Int64("seed", 1, "workload seed")
	machines := flag.Int("machines", 0, "simulated cluster size (default 150, 8 with -quick)")
	flag.Parse()

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	opt.Workload.Seed = *seed
	if *machines > 0 {
		opt.Machines = *machines
	}

	todo := experiments.All()
	if names := flag.Args(); len(names) > 0 {
		todo = todo[:0]
		for _, n := range names {
			e, err := experiments.ByName(n)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	ctx := experiments.NewContext(opt)
	fmt.Printf("# TiMR experiment suite — %d users, %d days, %d machines%s\n\n",
		opt.Workload.Users, opt.Workload.Days, opt.Machines,
		map[bool]string{true: " (quick)", false: ""}[*quick])
	for _, e := range todo {
		fmt.Printf("## %s — %s\n\n", e.Name, e.Caption)
		start := time.Now()
		tab, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println(tab)
		fmt.Printf("(%s in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}
