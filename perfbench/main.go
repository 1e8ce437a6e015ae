// Command perfbench is the repository benchmark. One run generates a
// tiny synthetic world from its seed and drives the whole product path
// through the library's public Go APIs: the offline attack (Train, then
// Infer over every user pair), a server warmed on the trained model, an
// open-loop read phase at a fixed rate, a rate ladder up to the
// saturation knee, and a mixed phase in which the time-ordered check-in
// tail streams into POST /v1/checkins while reads continue and one
// drift-triggered retrain hot-swaps a new model. It checks every answer,
// then prints one JSON line: the end-to-end metrics, or with --trace 1
// the per-layer metrics from spans, /metrics scrapes and layer probes.
//
//	perfbench --workload pairs4 --seed 1 --seconds 6 --trace 0
//	perfbench --overhead .bench_build/results
//
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name (pairs4 or pairs16)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 6, "length of the fixed-rate read phase")
		trace    = flag.Int("trace", 0, "1 records spans, scrapes /metrics and runs the layer probes, and prints the per-layer metrics")
		overhead = flag.String("overhead", "", "print the tracing overhead of the result files in this directory and exit")
	)
	flag.Parse()
	if *overhead != "" {
		if err := printOverhead(os.Stdout, *overhead); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload pairs4|pairs16, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
