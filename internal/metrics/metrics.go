// Package metrics implements the study's three evaluation metrics — REP
// (repair success via command-by-command equisatisfiability), TM (token
// match, sentence-level BLEU over whitespace tokens), and SM (syntax match,
// parse-tree subtree-kernel similarity) — plus the Pearson correlation used
// in the complementarity analysis.
package metrics

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/lexer"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/analyzer"
)

// REP computes the repair-success metric: 1 when every command of the
// ground truth yields the same satisfiability verdict on the candidate,
// else 0. A nil candidate scores 0.
func REP(an *analyzer.Analyzer, groundTruth, candidate *ast.Module) (int, error) {
	if candidate == nil {
		return 0, nil
	}
	eq, err := an.Equisat(groundTruth, candidate)
	if err != nil {
		return 0, err
	}
	if eq {
		return 1, nil
	}
	return 0, nil
}

// TokenMatch computes the TM metric: the sentence-level BLEU score of the
// candidate text against the ground-truth text, tokenized by the Alloy
// lexer (the paper separates on whitespace; lexical tokenization is the
// equivalent over canonically printed specs). Scores range in [0, 1].
func TokenMatch(groundTruth, candidate string) float64 {
	return (&Reference{tokens: lexer.Tokenize(groundTruth)}).TokenMatch(candidate)
}

// Reference is a ground truth prepared once for scoring any number of
// candidates against it with TM and SM: its tokens and its parse. It is
// only read after NewReference, so goroutines may share one.
type Reference struct {
	tokens []string
	mod    *ast.Module // nil when the ground truth does not parse
}

// NewReference prepares the ground-truth source for scoring. printedFrom,
// when not nil, is the module the source was printed from: when its
// complete subtrees are those of the source's parse, in the same order, SM
// reads it in place of the parse, and the Reference holds no tree of its
// own.
func NewReference(groundTruth string, printedFrom *ast.Module) *Reference {
	r := &Reference{tokens: lexer.Tokenize(groundTruth)}
	if mod, err := parser.Parse(groundTruth); err == nil {
		r.mod = mod
		if printedFrom != nil && sameSubtrees(mod, printedFrom) {
			r.mod = printedFrom
		}
	}
	return r
}

// sameSubtrees reports whether counting a's subtrees and counting b's from
// an empty table give the same table and counts, so that
// TreeKernelSimilarity gives the same score for a as for b against any
// module.
func sameSubtrees(a, b *ast.Module) bool {
	sa, sb := &subtrees{ids: map[string]int32{}}, &subtrees{ids: map[string]int32{}}
	return slices.Equal(sa.count(a), sb.count(b)) && maps.Equal(sa.ids, sb.ids)
}

// TokenMatch is TokenMatch(groundTruth, candidate) for r's ground truth.
func (r *Reference) TokenMatch(candidate string) float64 {
	return BLEU(r.tokens, lexer.Tokenize(candidate), 4)
}

// SyntaxMatch is SyntaxMatch(groundTruth, candidate) for r's ground truth.
func (r *Reference) SyntaxMatch(candidate string) float64 {
	if r.mod == nil {
		return 0
	}
	cand, err := parser.Parse(candidate)
	if err != nil {
		return 0
	}
	return TreeKernelSimilarity(r.mod, cand)
}

// BLEU computes sentence-level BLEU with uniform n-gram weights up to
// maxN, brevity penalty, and add-one smoothing on the higher-order
// precisions (Lin & Och smoothing), the standard choice for sentence-level
// scores on short texts.
func BLEU(ref, hyp []string, maxN int) float64 {
	if len(hyp) == 0 {
		return 0
	}
	if maxN < 1 {
		maxN = 1
	}
	g := newGrams(ref, hyp)
	logSum := 0.0
	for n := 1; n <= maxN; n++ {
		if n > 1 {
			g.extend(n)
		}
		matches, total := g.overlap()
		var p float64
		if n == 1 {
			if total == 0 {
				return 0
			}
			p = float64(matches) / float64(total)
		} else {
			p = (float64(matches) + 1) / (float64(total) + 1)
		}
		if p == 0 {
			return 0
		}
		logSum += math.Log(p)
	}
	bleu := math.Exp(logSum / float64(maxN))

	// Brevity penalty.
	if len(hyp) < len(ref) {
		bleu *= math.Exp(1 - float64(len(ref))/float64(len(hyp)))
	}
	if bleu > 1 {
		bleu = 1
	}
	return bleu
}

// grams holds the n-grams of a reference and a hypothesis at one order n as
// ids: the n-gram starting at position i of each text, where two n-grams
// share an id exactly when their tokens are equal. Order 1 interns the
// tokens; order n+1 interns each (n-gram, next token) pair.
type grams struct {
	refTok, hypTok []int32 // the token ids
	ref, hyp       []int32 // the ids of the n-grams at the current order
	ids            int     // ids in use at the current order
	pairs          map[uint64]int32
	counts         []int32 // scratch for overlap, one slot per id
}

func newGrams(ref, hyp []string) *grams {
	g := &grams{}
	tokens := make(map[string]int32, len(ref))
	intern := func(toks []string) []int32 {
		ids := make([]int32, len(toks))
		for i, t := range toks {
			id, ok := tokens[t]
			if !ok {
				id = int32(len(tokens))
				tokens[t] = id
			}
			ids[i] = id
		}
		return ids
	}
	g.refTok, g.hypTok = intern(ref), intern(hyp)
	g.ref = append([]int32(nil), g.refTok...)
	g.hyp = append([]int32(nil), g.hypTok...)
	g.ids = len(tokens)
	return g
}

// extend moves the grams from order n-1 to order n.
func (g *grams) extend(n int) {
	if g.pairs == nil {
		g.pairs = make(map[uint64]int32, len(g.ref)+len(g.hyp))
	} else {
		clear(g.pairs)
	}
	step := func(cur, toks []int32) []int32 {
		if len(cur) == 0 {
			return cur
		}
		cur = cur[:len(cur)-1]
		for i, prev := range cur {
			k := uint64(uint32(prev))<<32 | uint64(uint32(toks[i+n-1]))
			id, ok := g.pairs[k]
			if !ok {
				id = int32(len(g.pairs))
				g.pairs[k] = id
			}
			cur[i] = id
		}
		return cur
	}
	g.ref = step(g.ref, g.refTok)
	g.hyp = step(g.hyp, g.hypTok)
	g.ids = len(g.pairs)
}

// overlap counts clipped n-gram matches of the hypothesis against the
// reference at the current order, and the number of hypothesis n-grams:
// each hypothesis n-gram matches while the reference has an unmatched
// occurrence of it left.
func (g *grams) overlap() (matches, total int) {
	if cap(g.counts) < g.ids {
		g.counts = make([]int32, g.ids)
	}
	counts := g.counts[:g.ids]
	clear(counts)
	for _, id := range g.ref {
		counts[id]++
	}
	for _, id := range g.hyp {
		if counts[id] > 0 {
			counts[id]--
			matches++
		}
	}
	return matches, len(g.hyp)
}

// SyntaxMatch computes the SM metric: the normalized subtree-kernel
// similarity of the two specifications' parse trees. Both sources must
// parse; a non-parsing candidate scores 0.
func SyntaxMatch(groundTruth, candidate string) float64 {
	gt, err := parser.Parse(groundTruth)
	if err != nil {
		return 0
	}
	return (&Reference{mod: gt}).SyntaxMatch(candidate)
}

// TreeKernelSimilarity computes the normalized subtree kernel between two
// modules: K(a,b) / sqrt(K(a,a) * K(b,b)), where K counts pairs of
// identical complete subtrees. Identical trees score 1; trees sharing no
// subtree score 0.
func TreeKernelSimilarity(a, b *ast.Module) float64 {
	s := &subtrees{ids: map[string]int32{}}
	ca := s.count(a)
	cb := s.count(b)
	kab := kernel(ca, cb)
	kaa := kernel(ca, ca)
	kbb := kernel(cb, cb)
	if kaa == 0 || kbb == 0 {
		return 0
	}
	return kab / math.Sqrt(kaa*kbb)
}

// kernel sums the products of two modules' per-subtree counts.
func kernel(a, b []int32) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	sum := 0.0
	for id, ca := range a {
		sum += float64(ca) * float64(b[id])
	}
	return sum
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pearson computes the Pearson correlation coefficient of two equal-length
// samples, plus the two-tailed p-value of the null hypothesis r = 0
// (Student's t distribution with n-2 degrees of freedom). It returns NaN
// correlation for degenerate inputs (n < 2 or zero variance).
func Pearson(x, y []float64) (r, p float64) {
	n := len(x)
	if n != len(y) || n < 2 {
		return math.NaN(), math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN(), math.NaN()
	}
	r = sxy / math.Sqrt(sxx*syy)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	if n < 3 || math.Abs(r) == 1 {
		return r, 0
	}
	t := math.Abs(r) * math.Sqrt(float64(n-2)/(1-r*r))
	p = 2 * studentTUpperTail(t, float64(n-2))
	return r, p
}

// studentTUpperTail returns P(T >= t) for Student's t with df degrees of
// freedom, via the regularized incomplete beta function.
func studentTUpperTail(t, df float64) float64 {
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the standard continued-fraction expansion (Numerical Recipes
// betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// subtrees hash-conses the complete subtrees of modules into ids. A node's
// key is its label and its children's ids, so two subtrees share an id
// exactly when their canonical encodings, "(" + label + children + ")",
// are equal: no label holds a parenthesis, so an encoding splits into its
// label and its children's encodings one way only.
type subtrees struct {
	ids    map[string]int32
	key    []byte
	kids   []int32 // the ids of the children of the nodes being built
	counts []int32 // per id, its subtrees in the module being counted
}

// node interns the node labelled label over the children pushed since
// base, pops them, counts the node when counted is set, and returns its id.
func (s *subtrees) node(base int, label string, counted bool) int32 {
	kids := s.kids[base:]
	s.key = binary.AppendUvarint(s.key[:0], uint64(len(kids)))
	for _, k := range kids {
		s.key = binary.LittleEndian.AppendUint32(s.key, uint32(k))
	}
	s.key = append(s.key, label...)
	s.kids = s.kids[:base]
	id, ok := s.ids[string(s.key)]
	if !ok {
		id = int32(len(s.ids))
		s.ids[string(s.key)] = id
	}
	if counted {
		for int(id) >= len(s.counts) {
			s.counts = append(s.counts, 0)
		}
		s.counts[id]++
	}
	return id
}

func (s *subtrees) push(id int32) { s.kids = append(s.kids, id) }

func (s *subtrees) expr(e ast.Expr) int32 {
	base := len(s.kids)
	for i := range ast.NumChildren(e) {
		s.push(s.expr(ast.Child(e, i)))
	}
	return s.node(base, nodeLabel(e), true)
}

// count returns the multiset of a module's complete subtrees: per id, how
// many of its subtrees have it.
func (s *subtrees) count(m *ast.Module) []int32 {
	s.counts = nil
	root := len(s.kids)
	for _, sig := range m.Sigs {
		sb := len(s.kids)
		for _, f := range sig.Fields {
			fb := len(s.kids)
			s.push(s.expr(f.Expr))
			s.push(s.node(fb, "field:"+joinNames(f.Names)+f.Mult.String(), true))
		}
		if sig.Fact != nil {
			s.push(s.expr(sig.Fact))
		}
		s.push(s.node(sb, "sig:"+sigKey(sig), true))
	}
	for _, f := range m.Facts {
		fb := len(s.kids)
		s.push(s.expr(f.Body))
		s.push(s.node(fb, "fact:"+f.Name, true))
	}
	for _, p := range m.Preds {
		pb := len(s.kids)
		for _, d := range p.Params {
			db := len(s.kids)
			s.push(s.expr(d.Expr))
			s.push(s.node(db, "param:"+joinNames(d.Names), false))
		}
		s.push(s.expr(p.Body))
		s.push(s.node(pb, "pred:"+p.Name, true))
	}
	for _, fn := range m.Funs {
		fb := len(s.kids)
		s.push(s.expr(fn.Result))
		s.push(s.expr(fn.Body))
		s.push(s.node(fb, "fun:"+fn.Name, true))
	}
	for _, a := range m.Asserts {
		ab := len(s.kids)
		s.push(s.expr(a.Body))
		s.push(s.node(ab, "assert:"+a.Name, true))
	}
	for _, c := range m.Commands {
		cb := len(s.kids)
		if c.Block != nil {
			s.push(s.expr(c.Block))
		}
		s.push(s.node(cb, "cmd:"+c.Kind.String()+":"+c.Target, true))
	}
	s.node(root, "module", true)
	return s.counts
}

func nodeLabel(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return "id:" + x.Name
	case *ast.Const:
		return "const:" + x.Kind.String()
	case *ast.IntLit:
		return "int"
	case *ast.Unary:
		return "un:" + x.Op.String()
	case *ast.Binary:
		return "bin:" + x.Op.String()
	case *ast.BoxJoin:
		return "boxjoin"
	case *ast.Prime:
		return "prime"
	case *ast.Quantified:
		q := "quant:" + x.Quant.String()
		for _, d := range x.Decls {
			q += ":" + joinNames(d.Names)
		}
		return q
	case *ast.Comprehension:
		return "compr"
	case *ast.Let:
		return "let:" + joinNames(x.Names)
	case *ast.IfElse:
		return "ite"
	case *ast.Block:
		return "block"
	case *ast.Call:
		return "call:" + x.Name
	default:
		return "other"
	}
}

func sigKey(s *ast.Sig) string {
	key := joinNames(s.Names)
	if s.Abstract {
		key += ":abstract"
	}
	if s.Parent != "" {
		key += ":ext:" + s.Parent
	}
	return key
}

func joinNames(names []string) string {
	out := ""
	for _, n := range names {
		out += n + ","
	}
	return out
}
