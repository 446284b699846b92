package experiments

import (
	"strings"
	"testing"
)

// studyAtScale runs the full pipeline on a heavily scaled-down corpus.
// Cached across tests in the package because it is the expensive fixture.
var cachedStudy *Study

func scaledStudy(t *testing.T) *Study {
	t.Helper()
	if cachedStudy != nil {
		return cachedStudy
	}
	s, err := RunStudy(Config{Seed: 1, Scale: 100})
	if err != nil {
		t.Fatalf("RunStudy: %v", err)
	}
	cachedStudy = s
	return s
}

func TestRunProducesFullGrid(t *testing.T) {
	s := scaledStudy(t)
	if len(s.A4F.Results) != 12 || len(s.ARepair.Results) != 12 {
		t.Fatalf("techniques: %d / %d, want 12", len(s.A4F.Results), len(s.ARepair.Results))
	}
	for tech, results := range s.A4F.Results {
		if len(results) != len(s.A4F.Suite.Specs) {
			t.Errorf("%s covered %d/%d A4F specs", tech, len(results), len(s.A4F.Suite.Specs))
		}
	}
}

func TestTableIRenders(t *testing.T) {
	s := scaledStudy(t)
	table := s.TableI()
	for _, want := range []string{"classroom", "trash", "Student", "A4F summary", "ARepair summary", "Total"} {
		if !strings.Contains(table, want) {
			t.Errorf("Table I missing %q:\n%s", want, table)
		}
	}
	t.Log("\n" + table)
}

func TestFigure2ShapeHolds(t *testing.T) {
	s := scaledStudy(t)
	rows := s.Figure2()
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Figure2Row{}
	for _, r := range rows {
		if r.TM < 0 || r.TM > 1 || r.SM < 0 || r.SM > 1 {
			t.Errorf("%s similarity out of range: %+v", r.Technique, r)
		}
		byName[r.Technique] = r
	}
	// Traditional tools make minimal edits: their similarity should be
	// high in absolute terms.
	for _, tech := range []string{"ATR", "BeAFix", "ICEBAR"} {
		if byName[tech].SM < 0.7 {
			t.Errorf("%s SM = %.3f, expected high structural similarity", tech, byName[tech].SM)
		}
	}
	t.Log("\n" + s.RenderFigure2())
}

func TestFigure3Correlations(t *testing.T) {
	s := scaledStudy(t)
	names, matrix, maxP := s.Figure3()
	if len(names) != 12 {
		t.Fatal("names")
	}
	for i := range names {
		if matrix[i][i] < 0.999 {
			t.Errorf("self correlation of %s = %f", names[i], matrix[i][i])
		}
		for j := range names {
			if matrix[i][j] != matrix[j][i] {
				t.Errorf("matrix not symmetric at %d,%d", i, j)
			}
		}
	}
	_ = maxP // significance is checked on the full corpus in EXPERIMENTS.md
	t.Log("\n" + s.RenderFigure3())
}

func TestTableIIHybridInvariants(t *testing.T) {
	s := scaledStudy(t)
	hybrids := s.TableII()
	if len(hybrids) != 32 {
		t.Fatalf("hybrids = %d, want 32 (4 traditional x 8 LLM)", len(hybrids))
	}
	for _, h := range hybrids {
		if h.Overlap > h.TraditionalRepairs || h.Overlap > h.LLMRepairs {
			t.Errorf("%s+%s: overlap %d exceeds parts %d/%d",
				h.Traditional, h.LLM, h.Overlap, h.TraditionalRepairs, h.LLMRepairs)
		}
		if h.Union != h.TraditionalRepairs+h.LLMRepairs-h.Overlap {
			t.Errorf("%s+%s: union arithmetic broken", h.Traditional, h.LLM)
		}
		if h.Union < h.TraditionalRepairs || h.Union < h.LLMRepairs {
			t.Errorf("%s+%s: hybrid union below its parts", h.Traditional, h.LLM)
		}
	}
	t.Log("\n" + s.RenderTableII())
	t.Log("\n" + s.RenderFigure4())
	t.Log("\n" + s.Summary())
}

func TestFigure4RegionsConsistent(t *testing.T) {
	s := scaledStudy(t)
	for _, c := range s.Figure4() {
		if c.OnlyTraditional < 0 || c.OnlyLLM < 0 || c.Both < 0 {
			t.Errorf("negative Venn region: %+v", c)
		}
		if c.OnlyTraditional+c.OnlyLLM+c.Both != c.Hybrid.Union {
			t.Errorf("Venn regions do not sum to union: %+v", c)
		}
	}
}
