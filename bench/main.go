// Command dtxbench is the repository's benchmark: one process drives three
// dtxd over loopback TCP, closed loop, with seeded XMark workloads, and
// reports the end-to-end metrics (-trace 0) or the per-layer metrics of a
// layer ladder and a traced run (-trace 1) named in BENCHMARK.json. See
// README.md in this directory.
//
//	bash bench/run.sh -workload paper_mix -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -agree a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// buildDir is where run.sh puts the binaries and where a run keeps its store
// directories, relative to the root of the checkout.
const buildDir = ".bench_build"

// record is one line of an -out file: the result plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	name := flag.String("workload", "", "workload: paper_mix | write_large_doc | hot_section | snapshot_beside_writer")
	seed := flag.Int64("seed", 1, "seed of the generated documents and transaction streams")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, instrumentation off; 1: per-layer metrics (ladder + traced run)")
	out := flag.String("out", "", "append the result, tagged with workload, seed and trace, to this JSON-lines file")
	agree := flag.Bool("agree", false, "compare two -out files (arguments) against the bounds in BENCHMARK.json")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree needs two result files"))
		}
		ok, err := agreeFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || *seconds > 120 {
		fatal(fmt.Errorf("-seconds %v out of range", *seconds))
	}
	// run.sh starts this program at the root of the checkout, with dtxd
	// built into buildDir.
	dtxd, err := filepath.Abs(filepath.Join(buildDir, "dtxd"))
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stat(dtxd); err != nil {
		fatal(fmt.Errorf("dtxd binary: %w (start dtxbench through bench/run.sh, which builds it)", err))
	}

	// A signal, or a run that outlives the driver's per-run limit, must not
	// leave dtxd children or store directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintln(os.Stderr, "dtxbench:", s)
		case <-time.After(170 * time.Second):
			fmt.Fprintln(os.Stderr, "dtxbench: run exceeded 170s")
		}
		killAll()
		os.Exit(1)
	}()

	res, err := run(config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0,
		dtxd: dtxd, work: buildDir, traceOut: "bench/out",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtxbench:", err)
	}
	if res == nil {
		os.Exit(1)
	}
	printResult(w.name, res)
	if *out != "" && err == nil {
		if aerr := appendRecord(*out, record{w.name, *seed, *trace, *res}); aerr != nil {
			fatal(aerr)
		}
	}
	if err != nil {
		os.Exit(1)
	}
}

// printResult lists every metric with its unit and sample count, then the
// one-line JSON object the driver reads.
func printResult(workload string, res *result) {
	fmt.Printf("workload %s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0 // a class or phase with no sample at all
			res.Metrics[k] = m
		}
		fmt.Printf("  %-32s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, m.n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtxbench:", err)
	os.Exit(1)
}
