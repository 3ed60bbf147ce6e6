// Command tracegen generates, archives and inspects workload traces.
// Trace files are CGTRACE2, the format of the on-disk trace store;
// cmd/tccsim -trace replays them.
//
// Usage:
//
//	tracegen -app yada -threads 8 -seed 42 -o yada8.trace   # generate
//	tracegen -inspect yada8.trace                           # summarize
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/stamp"
	"repro/internal/workload"
)

func main() {
	var (
		app     = flag.String("app", "intruder", "workload preset")
		threads = flag.Int("threads", 8, "thread count")
		seed    = flag.Uint64("seed", 42, "generation seed")
		out     = flag.String("o", "", "output trace file (default <app><threads>.trace)")
		inspect = flag.String("inspect", "", "summarize an existing trace file")
	)
	flag.Parse()

	if *inspect != "" {
		data, err := os.ReadFile(*inspect)
		if err != nil {
			fatal(err)
		}
		tr, err := workload.DecodeV2Bytes(data)
		if err != nil {
			fatal(err)
		}
		summarize(tr)
		return
	}

	tr, err := stamp.Generate(stamp.App(*app), *threads, *seed)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s%d.trace", *app, *threads)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := workload.EncodeV2(f, tr); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
	summarize(tr)
}

func summarize(tr *workload.Trace) {
	fmt.Printf("trace    %s\n", tr.Name)
	fmt.Printf("threads  %d\n", tr.NumThreads())
	fmt.Printf("txs      %d total\n", tr.TotalTxs())
	reads, writes, computes := 0, 0, 0
	distinctPCs := make(map[uint64]struct{})
	maxLine := int64(-1)
	for ti := range tr.Threads {
		th := &tr.Threads[ti]
		for xi := range th.Txs {
			tx := &th.Txs[xi]
			distinctPCs[tx.PC] = struct{}{}
			for _, op := range tx.Ops {
				switch op.Kind {
				case workload.OpRead:
					reads++
				case workload.OpWrite:
					writes++
				case workload.OpCompute:
					computes++
				}
				if op.Kind != workload.OpCompute && int64(op.Line) > maxLine {
					maxLine = int64(op.Line)
				}
			}
		}
	}
	fmt.Printf("ops      %d reads, %d writes, %d compute bursts\n", reads, writes, computes)
	fmt.Printf("tx types %d distinct PCs\n", len(distinctPCs))
	fmt.Printf("footprint lines 0..%d\n", maxLine)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
