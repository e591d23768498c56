// Command vaxlint runs the control-store static analyzer over the
// shipped microprogram: the dispatch-rooted CFG passes that prove
// attribution completeness (every tickable histogram bucket maps to a
// Table 8 CPI cell), flow termination, path legality (stall entries,
// trap service, uret return sites), and dead-word absence. Exit status
// is nonzero on any error-severity finding, so CI can gate on it.
//
//	-bounds   also print the per-flow worst-case cycle bounds
//	-json     write the machine-readable proof report to stdout (nothing
//	          else is printed on success)
//	-strict   fail on warnings too
package main

import (
	"flag"
	"fmt"
	"os"

	"vax780"
)

func main() {
	bounds := flag.Bool("bounds", false, "print per-flow worst-case cycle bounds")
	jsonOut := flag.Bool("json", false, "write the machine-readable proof report to stdout")
	strict := flag.Bool("strict", false, "treat warnings as failures")
	flag.Parse()

	if *jsonOut {
		b, err := vax780.LintJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vaxlint:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		rep := vax780.LintControlStore()
		if len(rep.Errors()) > 0 || (*strict && !rep.Clean()) || !rep.Proven() {
			os.Exit(1)
		}
		return
	}

	rep := vax780.LintControlStore()
	fmt.Println(rep.Summary())
	for _, f := range rep.Findings {
		fmt.Println(" ", f)
	}
	if *bounds {
		fmt.Println("\nper-flow worst-case cycle bounds (stalls excluded):")
		for _, b := range rep.Bounds {
			fmt.Println(" ", b)
		}
	}

	if len(rep.Errors()) > 0 || (*strict && !rep.Clean()) || !rep.Proven() {
		os.Exit(1)
	}
}
