// Snoopbus: the paper's conclusion notes that the Extended Coherence
// Protocol "can also be implemented with snooping coherence protocols".
// This example runs the bus-based snooping ECP next to the mesh-based
// directory ECP while the machine grows, showing both that the protocol
// carries over (recovery points, rollback, reconfiguration all work) and
// why the paper prefers non-hierarchical COMAs: the single bus saturates
// as processors are added, while the mesh keeps scaling.
package main

import (
	"fmt"
	"log"
	"os"

	"coma"
	"coma/internal/config"
	"coma/internal/report"
	"coma/internal/snoop"
)

func main() {
	app := coma.Cholesky()
	t := &report.Table{
		ID:    "snoopbus",
		Title: "Snooping-bus ECP vs directory-mesh ECP",
		Note:  "same workload and frequency; execution time in cycles, bus utilisation in %",
		Columns: []string{"procs", "mesh ECP", "bus ECP", "bus/mesh",
			"bus utilisation"},
	}
	for _, nodes := range []int{4, 9, 16} {
		meshRes, err := coma.Run(coma.Config{
			Nodes:        nodes,
			Protocol:     coma.ECP,
			App:          app,
			Scale:        0.01,
			Seed:         9,
			CheckpointHz: 400,
			Oracle:       true,
		})
		if err != nil {
			log.Fatal(err)
		}

		arch := config.KSR1(nodes)
		busMachine, err := snoop.New(snoop.Config{
			Arch:               arch,
			FaultTolerant:      true,
			App:                app.Scale(0.01),
			Seed:               9,
			CheckpointInterval: arch.CheckpointIntervalCycles(400),
			Oracle:             true,
			MaxCycles:          1 << 40,
		})
		if err != nil {
			log.Fatal(err)
		}
		busRes, err := busMachine.Run()
		if err != nil {
			log.Fatal(err)
		}

		t.AddRow(nodes,
			fmt.Sprintf("%d", meshRes.Cycles),
			fmt.Sprintf("%d", busRes.Cycles),
			fmt.Sprintf("%.2fx", float64(busRes.Cycles)/float64(meshRes.Cycles)),
			report.FormatPct(busMachine.BusUtilisation()))
	}
	if err := t.Fprint(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("the bus variant validates the paper's closing claim; its")
	fmt.Println("utilisation climbing toward saturation is the reason the")
	fmt.Println("paper builds on a non-hierarchical, mesh-based COMA.")
}
