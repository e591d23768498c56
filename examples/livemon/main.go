// Livemon: watch a measurement run through the live telemetry layer —
// the paper's passive histogram board, observable over HTTP while the
// simulated 11/780 executes.
//
// The example serves the monitor, runs the composite in the background,
// polls its own /metrics and /board endpoints the way an operator (or a
// Prometheus scraper) would, and finally exports the interval time
// series and a Chrome trace.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"vax780"
)

func main() {
	// Enable all three telemetry components: live counters (always on),
	// an interval snapshot every 100k cycles, and a capped Chrome trace.
	tel := vax780.NewTelemetry(100_000, 500_000)

	// Serve the monitor. A real deployment would use
	// http.ListenAndServe(":8780", tel.Handler()); the example uses a
	// test server so it needs no free port.
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()
	fmt.Println("live monitor at", srv.URL)

	done := make(chan *vax780.Results, 1)
	go func() {
		res, err := vax780.Run(vax780.RunConfig{
			Instructions: 20_000,
			Telemetry:    tel,
		})
		if err != nil {
			log.Fatal(err)
		}
		done <- res
	}()

	res := <-done

	// Scrape our own Prometheus endpoint, as a monitoring stack would.
	fmt.Println("\n/metrics (Prometheus text, excerpt):")
	for _, line := range strings.Split(get(srv.URL+"/metrics"), "\n") {
		if strings.HasPrefix(line, "vax780_") {
			fmt.Println(" ", line)
		}
	}

	// Read the histogram board over its HTTP Unibus mirror: CSR status,
	// then the five hottest control-store locations.
	fmt.Println("\n/board/csr:", strings.TrimSpace(get(srv.URL+"/board/csr")))
	var hot struct {
		Buckets []struct {
			Addr    int    `json:"addr"`
			Normal  uint64 `json:"normal"`
			Stalled uint64 `json:"stalled"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(get(srv.URL+"/board/read?hot=5")), &hot); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhottest control-store buckets via /board/read?hot=5:")
	for _, bkt := range hot.Buckets {
		fmt.Printf("  %05o  %d cycles (%d stalled)\n", bkt.Addr, bkt.Normal, bkt.Stalled)
	}

	// The live counters agree with the offline reduction.
	c := tel.Counters()
	fmt.Printf("\nlive counters: %d cycles, %d instructions, CPI %.3f\n",
		c.Cycles, c.Instrs, c.CPI)
	fmt.Printf("offline composite: %d cycles, CPI %.3f\n",
		res.Histogram().TotalCycles(), res.CPI())

	// Export the interval time series and the Perfetto-loadable trace.
	csv, err := os.Create("intervals.csv")
	if err != nil {
		log.Fatal(err)
	}
	if err := tel.WriteIntervalsCSV(csv); err != nil {
		log.Fatal(err)
	}
	if err := csv.Close(); err != nil {
		log.Fatal(err)
	}
	trace, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := tel.WriteTrace(trace); err != nil {
		log.Fatal(err)
	}
	if err := trace.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote intervals.csv (%d intervals) and trace.json (open in chrome://tracing or https://ui.perfetto.dev)\n",
		c.Intervals)
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}
