package parser

import (
	"errors"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/token"
)

// hotelSrc is the faulty hotel key-management model from Figure 1 of the
// paper, used as an integration fixture throughout the repository.
const hotelSrc = `
abstract sig Key {}
sig RoomKey extends Key {}
sig Room {
  keys: set Key
}
sig Guest {
  gkeys: set Key
}
one sig FrontDesk {
  lastKey: Room -> lone RoomKey,
  occupant: Room -> lone Guest
}

fact HotelInvariant {
  all r: Room | some FrontDesk.lastKey[r]
}

pred checkIn[g: Guest, r: Room, k: RoomKey] {
  no g.gkeys
  FrontDesk.occupant' = FrontDesk.occupant + r->g
  g.gkeys' = g.gkeys + k
}

run checkIn for 3 but exactly 2 Room
`

func TestParseHotel(t *testing.T) {
	mod, err := Parse(hotelSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got, want := len(mod.Sigs), 5; got != want {
		t.Errorf("len(Sigs) = %d, want %d", got, want)
	}
	if got, want := len(mod.Facts), 1; got != want {
		t.Errorf("len(Facts) = %d, want %d", got, want)
	}
	if got, want := len(mod.Preds), 1; got != want {
		t.Errorf("len(Preds) = %d, want %d", got, want)
	}
	if got, want := len(mod.Commands), 1; got != want {
		t.Fatalf("len(Commands) = %d, want %d", got, want)
	}

	key := mod.LookupSig("Key")
	if key == nil || !key.Abstract {
		t.Errorf("Key sig = %+v, want abstract", key)
	}
	rk := mod.LookupSig("RoomKey")
	if rk == nil || rk.Parent != "Key" {
		t.Errorf("RoomKey parent = %v, want Key", rk)
	}
	fd := mod.LookupSig("FrontDesk")
	if fd == nil || fd.Mult != ast.MultOne {
		t.Errorf("FrontDesk mult = %v, want one", fd)
	}
	if len(fd.Fields) != 2 {
		t.Fatalf("FrontDesk fields = %d, want 2", len(fd.Fields))
	}
	lk := fd.Fields[0]
	prod, ok := lk.Expr.(*ast.Binary)
	if !ok || prod.Op != ast.BinProduct {
		t.Fatalf("lastKey range = %T, want product", lk.Expr)
	}
	if prod.RightMult != ast.MultLone {
		t.Errorf("lastKey right mult = %v, want lone", prod.RightMult)
	}

	cmd := mod.Commands[0]
	if cmd.Kind != ast.CmdRun || cmd.Target != "checkIn" {
		t.Errorf("command = %+v", cmd)
	}
	if cmd.Scope.Default != 3 || cmd.Scope.Exact["Room"] != 2 {
		t.Errorf("scope = %+v", cmd.Scope)
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	mod, err := Parse(hotelSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	printed := printer.Module(mod)
	mod2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-Parse printed module: %v\n%s", err, printed)
	}
	printed2 := printer.Module(mod2)
	if printed != printed2 {
		t.Errorf("print is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	tests := []struct {
		src  string
		want string // canonical printing
	}{
		{"a + b & c", "a + b & c"},
		{"(a + b) & c", "(a + b) & c"},
		{"a.b.c", "a.b.c"},
		{"a.(b.c)", "a.(b.c)"},
		{"~a.b", "~a.b"}, // ~ binds tighter than .
		{"^(a.b)", "^(a.b)"},
		{"a in b + c", "a in b + c"},
		{"no a.b", "no a.b"},
		{"not p and q", "not p and q"},
		{"p implies q implies r", "p implies q implies r"},
		{"p or q and r", "p or q and r"},
		{"#a > 2", "#a > 2"},
		{"a -> b -> c", "a -> b -> c"},
		{"all x: S | some x.f", "all x: S | some x.f"},
		{"some x, y: S | x != y", "some x, y: S | x != y"},
		{"a <: r :> b", "a <: r :> b"},
		{"r ++ s", "r ++ s"},
		{"f[x, y]", "f[x, y]"},
		{"{x: S | some x.f}", "{x: S | some x.f}"},
		{"let k = a.b | k in c", "let k = a.b | k in c"},
		{"p => q else r", "p implies q else r"},
		{"x !in y", "x not in y"},
		{"x not in y", "x not in y"},
		{"s'", "s'"},
		{"a.b' = c", "a.b' = c"},
	}
	for _, tt := range tests {
		e, err := ParseExpr(tt.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tt.src, err)
			continue
		}
		if got := printer.Expr(e); got != tt.want {
			t.Errorf("print(parse(%q)) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestParseExprAssociativity(t *testing.T) {
	e, err := ParseExpr("a - b - c")
	if err != nil {
		t.Fatal(err)
	}
	// Left associative: (a-b)-c.
	top, ok := e.(*ast.Binary)
	if !ok || top.Op != ast.BinDiff {
		t.Fatalf("top = %T %v", e, e)
	}
	if _, ok := top.Left.(*ast.Binary); !ok {
		t.Errorf("a - b - c should parse left-associatively")
	}
}

func TestParseImpliesRightAssoc(t *testing.T) {
	e, err := ParseExpr("p implies q implies r")
	if err != nil {
		t.Fatal(err)
	}
	top := e.(*ast.Binary)
	if _, ok := top.Right.(*ast.Binary); !ok {
		t.Errorf("implies should be right-associative")
	}
}

func TestParseQuantifierVsMultPrefix(t *testing.T) {
	// "some x: S | p" is a quantifier; "some x.f" is a multiplicity formula.
	q, err := ParseExpr("some x: S | some x.f")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.(*ast.Quantified); !ok {
		t.Fatalf("want Quantified, got %T", q)
	}
	m, err := ParseExpr("some S")
	if err != nil {
		t.Fatal(err)
	}
	u, ok := m.(*ast.Unary)
	if !ok || u.Op != ast.UnSome {
		t.Fatalf("want some-prefix unary, got %T", m)
	}
}

func TestParseBlockBodies(t *testing.T) {
	src := `
sig S { f: set S }
pred p {
  all x: S {
    some x.f
    x not in x.f
  }
}
run p for 3
`
	mod, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	q, ok := mod.Preds[0].Body.(*ast.Block).Exprs[0].(*ast.Quantified)
	if !ok {
		t.Fatalf("body[0] = %T, want Quantified", mod.Preds[0].Body.(*ast.Block).Exprs[0])
	}
	blk, ok := q.Body.(*ast.Block)
	if !ok || len(blk.Exprs) != 2 {
		t.Fatalf("quant body = %T, want 2-element block", q.Body)
	}
}

func TestParseSigForms(t *testing.T) {
	src := `
abstract sig A {}
sig B, C extends A {}
lone sig D in B + C {}
some sig E { f: D -> one A, g: lone B }
fact { some E }
check {} for 2
`
	mod, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	b := mod.LookupSig("B")
	cSig := mod.LookupSig("C")
	if b == nil || cSig == nil || b != cSig {
		t.Errorf("B and C should share one declaration")
	}
	d := mod.LookupSig("D")
	if d.Mult != ast.MultLone || len(d.Subset) != 2 {
		t.Errorf("D = %+v", d)
	}
	e := mod.LookupSig("E")
	if e.Mult != ast.MultSome || len(e.Fields) != 2 {
		t.Errorf("E = %+v", e)
	}
	if mod.Commands[0].Kind != ast.CmdCheck || mod.Commands[0].Block == nil {
		t.Errorf("check block command = %+v", mod.Commands[0])
	}
}

func TestParseAppendedSigFact(t *testing.T) {
	src := `
sig S { f: set S } { some f }
run {} for 2
`
	mod, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if mod.Sigs[0].Fact == nil {
		t.Error("appended sig fact not captured")
	}
}

func TestParseScopeVariants(t *testing.T) {
	tests := []struct {
		src      string
		def      int
		exact    map[string]int
		persig   map[string]int
		bitwidth int
	}{
		{"run p for 3", 3, nil, nil, 0},
		{"run p for 3 but 2 A", 3, nil, map[string]int{"A": 2}, 0},
		{"run p for exactly 2 A, 3 B", 0, map[string]int{"A": 2}, map[string]int{"B": 3}, 0},
		{"run p for 4 Int, 2 A", 0, nil, map[string]int{"A": 2}, 4},
		{"run p", 0, nil, nil, 0},
	}
	for _, tt := range tests {
		mod, err := Parse("pred p {} " + tt.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		sc := mod.Commands[0].Scope
		if sc.Default != tt.def {
			t.Errorf("%q: default = %d, want %d", tt.src, sc.Default, tt.def)
		}
		for k, v := range tt.exact {
			if sc.Exact[k] != v {
				t.Errorf("%q: exact[%s] = %d, want %d", tt.src, k, sc.Exact[k], v)
			}
		}
		for k, v := range tt.persig {
			if sc.PerSig[k] != v {
				t.Errorf("%q: persig[%s] = %d, want %d", tt.src, k, sc.PerSig[k], v)
			}
		}
		if sc.Bitwidth != tt.bitwidth {
			t.Errorf("%q: bitwidth = %d, want %d", tt.src, sc.Bitwidth, tt.bitwidth)
		}
	}
}

func TestParseExpect(t *testing.T) {
	mod, err := Parse("pred p {} run p for 3 expect 1")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Commands[0].Expect != 1 {
		t.Errorf("expect = %d, want 1", mod.Commands[0].Expect)
	}
	mod, err = Parse("pred p {} run p for 3")
	if err != nil {
		t.Fatal(err)
	}
	if mod.Commands[0].Expect != -1 {
		t.Errorf("expect = %d, want -1 (unset)", mod.Commands[0].Expect)
	}
}

func TestParseLabeledCommand(t *testing.T) {
	mod, err := Parse("pred p {} sanity: run p for 2")
	if err != nil {
		t.Fatal(err)
	}
	cmd := mod.Commands[0]
	if cmd.Name != "sanity" || cmd.Target != "p" {
		t.Errorf("cmd = %+v", cmd)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		src string
		pos token.Pos
		msg string
	}{
		{"sig {", token.Pos{Line: 1, Col: 5}, "expected identifier, found {"},
		{"pred p { all x | x }", token.Pos{Line: 1, Col: 16}, "expected :, found |"},
		{"fact { a ++ }", token.Pos{Line: 1, Col: 13}, "unexpected } in expression"},
		{"open util/ordering", token.Pos{Line: 1, Col: 1}, "open declarations are not supported by this Alloy subset"},
		{"sig A extends {}", token.Pos{Line: 1, Col: 15}, "expected identifier, found {"},
		{"run", token.Pos{Line: 1, Col: 4}, "expected target name or block after run"},
		{"assert {}", token.Pos{Line: 1, Col: 8}, "expected identifier, found {"},
		{"sig A { f: }", token.Pos{Line: 1, Col: 12}, "unexpected } in expression"},
		{"fact { a = b = c }", token.Pos{Line: 1, Col: 14}, "unexpected = in expression"},
		{"fact { no some A }", token.Pos{Line: 1, Col: 11}, "unexpected some in expression"},
		{"fact { all x: A { x in x } and x }", token.Pos{Line: 1, Col: 28}, "unexpected and in expression"},
	}
	for _, tt := range tests {
		_, err := Parse(tt.src)
		var perr *Error
		if !errors.As(err, &perr) {
			t.Errorf("Parse(%q) = %v, want a *Error", tt.src, err)
			continue
		}
		if perr.Pos != tt.pos || perr.Msg != tt.msg {
			t.Errorf("Parse(%q) = %v: %q, want %v: %q", tt.src, perr.Pos, perr.Msg, tt.pos, tt.msg)
		}
		if want := tt.pos.String() + ": " + tt.msg; err.Error() != want {
			t.Errorf("Parse(%q) error text = %q, want %q", tt.src, err.Error(), want)
		}
	}
}

func TestParseCommentsInterleaved(t *testing.T) {
	src := `
// leading
sig A {} -- trailing
/* block */ pred p { some A }
run p for 2
`
	if _, err := Parse(src); err != nil {
		t.Fatalf("Parse: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	mod, err := Parse(hotelSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Module.Clone is a header copy: replacing a paragraph of the clone
	// leaves the original's paragraph list alone.
	clone := mod.Clone()
	clone.Preds[0] = &ast.Pred{Name: mod.Preds[0].Name, Body: &ast.Block{}}
	if printer.Module(mod) == printer.Module(clone) {
		t.Error("replacing a paragraph of the clone affected the original")
	}
	clone2 := mod.Clone()
	if printer.Module(mod) != printer.Module(clone2) {
		t.Error("clone should print identically")
	}
}
