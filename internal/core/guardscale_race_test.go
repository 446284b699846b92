//go:build race

package core

// guardScale is the corpus scale TestStudyLeavesSpecsUntouched runs at:
// under the race detector, which slows the study about tenfold, a coarser
// slice (36 specs) keeps the package's race run well under a minute.
const guardScale = 1000
