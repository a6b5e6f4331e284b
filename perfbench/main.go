// Command perfbench measures the MAD server the way an application uses
// it: MQL text sent over one client connection of the framed TCP
// protocol, rendered molecules read back from CHUNK and OK frames, every
// answer checked against the generator's own computation. It starts
// server.Server on loopback in its own process and drives it in a closed
// loop — the next request goes out when the previous answer is in.
//
// Usage:
//
//	perfbench --workload bulk|rw --seed N --seconds S --trace 0|1
//	perfbench --reference [--seed N]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// drives the same cycle in process through the layers' public functions
// with spans around each call and prints the per-layer metrics. The last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --reference it prints the README's reference
// figures instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// dataDir holds the durable databases of the rw workload, inside the
// checkout the benchmark runs from.
const dataDir = ".bench_build/data"

func main() {
	name := flag.String("workload", "bulk", "workload: bulk or rw")
	seed := flag.Uint64("seed", 1, "seed of the generated data and statement cycle")
	seconds := flag.Int("seconds", 30, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	reference := flag.Bool("reference", false, "print the README's reference figures instead")
	flag.Parse()
	var err error
	if *reference {
		err = runReference(os.Stdout, *seed, dataDir)
	} else {
		err = run(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	var res *result
	switch trace {
	case 0:
		res, err = runUntraced(w, seed, seconds, dataDir)
	case 1:
		res, err = runTraced(w, seed, dataDir, w.traceCycles)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	return printResult(res)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(res *result) error {
	ms := make(map[string]jsonMetric, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.name] = jsonMetric{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.wrong == 0, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
