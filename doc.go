// Package specrepair is a Go reproduction of "Towards More Dependable
// Specifications: An Empirical Study Exploring the Synergy of Traditional
// and LLM-Based Repair Approaches" (DSN 2025).
//
// The repository rebuilds the entire stack the study runs on — an
// Alloy-subset language front end, a Kodkod-style bounded analyzer over a
// native CDCL SAT solver, the four traditional repair tools (ARepair,
// ICEBAR, BeAFix, ATR), the Single-Round and Multi-Round LLM repair
// frameworks as one repair loop over a deterministic simulated model, both
// benchmark suites,
// the REP/TM/SM metrics, and the experiment harness regenerating every
// table and figure of the paper's evaluation.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package specrepair
