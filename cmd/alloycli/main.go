// Command alloycli parses and analyzes Alloy specifications with the native
// bounded analyzer: print the canonical form, execute run/check commands,
// or evaluate a formula against the first instance found.
//
// Usage:
//
//	alloycli parse file.als
//	alloycli exec file.als            # execute every command
//	alloycli eval file.als 'formula'  # evaluate against a run {} instance
package main

import (
	"flag"
	"fmt"
	"os"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/analyzer"
	"specrepair/internal/instance"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "alloycli:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("alloycli", flag.ContinueOnError)
	maxConflicts := fs.Int64("max-conflicts", 0, "SAT conflict budget per command (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 2 {
		return fmt.Errorf("usage: alloycli [flags] parse|exec|eval FILE [FORMULA]")
	}
	verb, path := rest[0], rest[1]

	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mod, err := parser.Parse(string(src))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}

	an := analyzer.New(analyzer.Options{MaxConflicts: *maxConflicts})
	switch verb {
	case "parse":
		if _, err := types.Check(mod); err != nil {
			return fmt.Errorf("type checking: %w", err)
		}
		fmt.Print(printer.Module(mod))
		return nil
	case "exec":
		results, err := an.ExecuteAll(mod)
		if err != nil {
			return err
		}
		for _, r := range results {
			verdict := "UNSAT"
			if r.Sat {
				verdict = "SAT"
			}
			status := "fail"
			if r.Passed() {
				status = "pass"
			}
			fmt.Printf("%s %s: %s (%s; %d vars, %d clauses, %d conflicts)\n",
				r.Command.Kind, r.Command.Name, verdict, status,
				r.Stats.SolverVars, r.Stats.Clauses, r.Stats.Conflicts)
			if r.Sat && r.Instance != nil {
				fmt.Print(indent(r.Instance.String()))
			}
		}
		return nil
	case "eval":
		if len(rest) < 3 {
			return fmt.Errorf("eval requires a formula argument")
		}
		return evalFormula(an, mod, rest[2])
	default:
		return fmt.Errorf("unknown verb %q", verb)
	}
}

func evalFormula(an *analyzer.Analyzer, mod *ast.Module, formula string) error {
	expr, err := parser.ParseExpr(formula)
	if err != nil {
		return fmt.Errorf("parsing formula: %w", err)
	}
	witness := mod.Clone()
	witness.Commands = []*ast.Command{{
		Kind:   ast.CmdRun,
		Name:   "eval$witness",
		Block:  &ast.Block{},
		Scope:  ast.Scope{Default: 3},
		Expect: -1,
	}}
	results, err := an.ExecuteAll(witness)
	if err != nil {
		return err
	}
	if len(results) == 0 || !results[0].Sat {
		return fmt.Errorf("no instance satisfies the facts at the default scope")
	}
	low, _, err := types.Lower(mod)
	if err != nil {
		return err
	}
	expr = types.RewriteCalls(low, expr)
	ev := &instance.Evaluator{Mod: low, Inst: results[0].Instance}
	fmt.Print(indent(results[0].Instance.String()))
	v, err := ev.EvalFormula(expr, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%s = %v\n", formula, v)
	return nil
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
