//go:build !race

package core

// guardScale is the corpus scale TestStudyLeavesSpecsUntouched runs at.
const guardScale = 40
