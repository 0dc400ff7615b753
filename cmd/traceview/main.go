// Command traceview analyzes a trace written by the -trace-out flag of
// dashmm-bench (JSON lines of operator events): it prints the per-operator
// cost table (the Table II t_avg methodology) and the utilization profile
// of Section V-B, locating the starvation dip if present.
//
//	dashmm-bench -real -n 100000 -trace-out run.trace
//	traceview -workers 4 run.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/dag"
	"repro/internal/trace"
)

func main() {
	var (
		workers   = flag.Int("workers", 1, "scheduler thread count n of the traced run")
		intervals = flag.Int("intervals", 100, "number of uniform analysis intervals M")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceview [-workers n] [-intervals m] <trace-file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSON(f)
	if err != nil {
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			log.Fatal(err)
		}
		// A truncated trace is still analyzable — warn and use the prefix.
		fmt.Fprintf(os.Stderr, "traceview: warning: %v (analyzing the %d complete events)\n", err, len(events))
	}
	if len(events) == 0 {
		log.Fatal("traceview: empty trace")
	}
	start, end := trace.Span(events)
	fmt.Printf("%d events over %.3f ms\n", len(events), float64(end-start)/1e6)

	fmt.Println("\nper-operator average execution time:")
	avg := trace.AvgMicrosByClass(events)
	counts := map[uint8]int{}
	for _, ev := range events {
		counts[ev.Class]++
	}
	var classes []int
	for c := range avg {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	for _, c := range classes {
		fmt.Printf("  %-5v %10d x %10.2f µs\n", dag.OpKind(c), counts[uint8(c)], avg[uint8(c)])
	}
	// Transport markers are zero-duration occurrence counters and
	// are excluded from the averages; list their counts separately.
	var markers []int
	for c := range counts {
		if trace.NetClassName(c) != "" {
			markers = append(markers, int(c))
		}
	}
	if len(markers) > 0 {
		sort.Ints(markers)
		fmt.Println("\nmarker events:")
		for _, c := range markers {
			fmt.Printf("  %-17s %10d\n", trace.NetClassName(uint8(c)), counts[uint8(c)])
		}
	}

	u := trace.Analyze(events, *workers, *intervals, start, end)
	fmt.Printf("\nutilization profile (f_k, n=%d, M=%d):\n", *workers, *intervals)
	for k, v := range u.Total {
		bar := strings.Repeat("#", int(v*40+0.5))
		fmt.Printf("%3d %5.2f %s\n", k, v, bar)
	}
	if first, last, plateau, found := u.Starvation(0.7); found {
		fmt.Printf("\nstarvation dip: intervals %d-%d below the %.2f plateau (width %d%% of run)\n",
			first, last, plateau, (last-first+1)*100 / *intervals)
	} else {
		fmt.Println("\nno starvation dip detected")
	}
}
