// Scheme tradeoffs: should a deployment use MLEC, SLEC, or LRC?
//
// The live version of the paper's Takeaways 5 and 6: systems with lower
// durability requirements can choose SLEC for performance; systems that
// must never lose data should choose MLEC for high durability at higher
// encoding throughput and orders-of-magnitude less repair traffic.
//
//	go run ./examples/scheme_tradeoffs
package main

import (
	"fmt"
	"log"
	"os"

	"mlec"
)

func main() {
	// Durability vs throughput at ~30% parity overhead (Figures 12/15).
	opts := mlec.ExperimentOptions{Quick: true, Seed: 3, AFR: 0.01}
	if err := mlec.RunExperiment("fig12", opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := mlec.RunExperiment("fig15", opts, os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Long-run repair network traffic (§5.1.4/§5.2.4).
	if err := mlec.RunExperiment("sec514", opts, os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Encoding throughput of the paper's flagship configurations.
	fmt.Println("\nencoding throughput (single goroutine):")
	for _, cfg := range []mlec.Params{
		{KN: 5, PN: 1, KL: 5, PL: 1},
		{KN: 10, PN: 2, KL: 17, PL: 3},
		{KN: 17, PN: 3, KL: 17, PL: 3},
	} {
		tp, err := mlec.EncodingThroughput(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  MLEC %v: %.2f GB/s\n", cfg, tp/1e9)
	}

	fmt.Println("\ntakeaways (paper §6.1):")
	fmt.Println("  5. lower durability requirements → SLEC for raw performance")
	fmt.Println("  6. durability-critical (HPC, PB-scale correlated data) → MLEC:")
	fmt.Println("     high nines, higher encoding throughput than wide SLEC/LRC,")
	fmt.Println("     and cross-rack repair traffic measured in TB per millennium")
}
