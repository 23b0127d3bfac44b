// Command perfbench is the repository's end-to-end benchmark. It boots the
// real apserve (and aprouter) binaries built from this tree, drives them over
// loopback HTTP from one load-generator process, checks every answer class
// against the serial oracle and prints the end-to-end metrics; with -trace 1
// it instead builds the same servers in process, wraps the calls into each
// module and prints the per-layer budget.
//
//	bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A wrong answer makes the command exit with status 1 after printing it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "point", "workload: point, batch, churn or routed")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same datasets and requests")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced in-process variant and prints per-layer metrics")
	bin := flag.String("bin", "", "directory holding the apserve and aprouter binaries")
	work := flag.String("work", "", "scratch directory for logs and data")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(workload string, seed uint64, seconds, trace int, bin, work string) error {
	sp, err := specByName(workload)
	if err != nil {
		return err
	}
	if seconds < 1 || bin == "" || work == "" {
		return fmt.Errorf("need -seconds ≥ 1, -bin and -work")
	}
	work = fmt.Sprintf("%s/%s-%d", work, workload, seed)
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	var out *outcome
	if trace == 1 {
		out, err = runTraced(ctx, sp, seed, seconds, work)
	} else {
		out, err = runUntraced(ctx, sp, seed, seconds, bin, work)
	}
	if err != nil {
		return err
	}
	for _, n := range out.notes {
		fmt.Printf("# %s %s\n", workload, n)
	}
	res := result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	units := endToEnd
	if trace == 1 {
		units = perLayer
	}
	for name := range units {
		if _, ok := out.metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	for _, name := range names {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %s has no unit", name)
		}
		res.Metrics[name] = metric{Value: out.metrics[name], Unit: unit}
		fmt.Printf("# %s %-34s %14.6g %s\n", workload, name, out.metrics[name], unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers; first: %s\n", out.wrong, out.wrongFirst)
		os.Exit(1)
	}
	return nil
}
