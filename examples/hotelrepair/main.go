// Hotelrepair runs all twelve repair techniques of the study on the
// paper's hotel-key bug and compares their outcomes: repair verdict, REP
// against a reference fix, and token/syntax similarity — a miniature of
// the full study on a single specification.
package main

import (
	"context"
	"fmt"
	"os"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/analyzer"
	"specrepair/internal/core"
	"specrepair/internal/metrics"
	"specrepair/internal/repair"
)

const faultySrc = `
abstract sig Key {}
sig RoomKey extends Key {}
sig Room { keys: set Key }
sig Guest { gkeys: set Key }
one sig FrontDesk {
  lastKey: Room -> lone RoomKey,
  occupant: Room -> lone Guest
}

fact KeysAreRoomKeys {
  all g: Guest | g.gkeys in RoomKey
  all r: Room | r.keys in RoomKey
}

pred checkIn[g: Guest, r: Room, k: RoomKey] {
  no FrontDesk.occupant[r]
  no g.gkeys
  FrontDesk.occupant' = FrontDesk.occupant + r->g
  g.gkeys' = g.gkeys + k
}

run checkIn for 3 expect 1
run { some g: Guest, r: Room, k: RoomKey | some g.gkeys and checkIn[g, r, k] } for 3 expect 1
`

// groundTruth replaces the overly-restrictive "no g.gkeys" with the
// intended "k not in g.gkeys" — the fix the paper's Section II discusses.
const groundTruth = `
abstract sig Key {}
sig RoomKey extends Key {}
sig Room { keys: set Key }
sig Guest { gkeys: set Key }
one sig FrontDesk {
  lastKey: Room -> lone RoomKey,
  occupant: Room -> lone Guest
}

fact KeysAreRoomKeys {
  all g: Guest | g.gkeys in RoomKey
  all r: Room | r.keys in RoomKey
}

pred checkIn[g: Guest, r: Room, k: RoomKey] {
  no FrontDesk.occupant[r]
  k not in g.gkeys
  FrontDesk.occupant' = FrontDesk.occupant + r->g
  g.gkeys' = g.gkeys + k
}

run checkIn for 3 expect 1
run { some g: Guest, r: Room, k: RoomKey | some g.gkeys and checkIn[g, r, k] } for 3 expect 1
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hotelrepair:", err)
		os.Exit(1)
	}
}

func run() error {
	faulty, err := parser.Parse(faultySrc)
	if err != nil {
		return err
	}
	gt, err := parser.Parse(groundTruth)
	if err != nil {
		return err
	}
	an := analyzer.New(analyzer.Options{})
	gtSrc := printer.Module(gt)

	problem := repair.Problem{
		Name:   "hotel",
		Faulty: faulty,
		Hints: repair.Hints{
			Location:       "pred checkIn",
			FixDescription: "replace `no g.gkeys` with `k not in g.gkeys`",
		},
	}

	fmt.Printf("%-24s %8s %4s %7s %7s\n", "technique", "claimed", "REP", "TM", "SM")
	for _, factory := range core.StudyFactoriesWith(1, core.FactoryOptions{}) {
		tool := factory.New()
		out, err := tool.Repair(context.Background(), problem)
		if err != nil {
			// ARepair needs tests; report and continue.
			fmt.Printf("%-24s %8s\n", factory.Name, "n/a")
			continue
		}
		candSrc := printer.Module(faulty)
		rep := 0
		if out.Candidate != nil {
			candSrc = printer.Module(out.Candidate)
			rep, err = metrics.REP(an, gt, out.Candidate)
			if err != nil {
				return err
			}
		}
		fmt.Printf("%-24s %8v %4d %7.3f %7.3f\n",
			factory.Name, out.Repaired, rep,
			metrics.TokenMatch(gtSrc, candSrc), metrics.SyntaxMatch(gtSrc, candSrc))
	}
	return nil
}
