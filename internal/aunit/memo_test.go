package aunit

import (
	"fmt"
	"sync"
	"testing"
)

// Two models that share the signature Node but declare different fields:
// the same test must see each model's own fields, with each model's arity.
const (
	modelNext = `sig Node { next: set Node }`
	modelLink = `sig Node { link: Node -> Node, next: Node -> Node }`
)

func TestValuationMemoSeedsEachModelsRelations(t *testing.T) {
	test := &Test{
		Name:      "nodes_only",
		Valuation: map[string][][]string{"Node": {{"N0"}, {"N1"}}},
		Formula:   "no next",
		Expect:    true,
	}
	a := Prepare(mustParse(t, modelNext))
	b := Prepare(mustParse(t, modelLink))
	for _, tc := range []struct {
		m      *Model
		arity  map[string]int
		absent string
	}{
		{a, map[string]int{"Node": 1, "next": 2}, "link"},
		{b, map[string]int{"Node": 1, "next": 3, "link": 3}, ""},
		{a, map[string]int{"Node": 1, "next": 2}, "link"},
	} {
		inst, err := test.Instance(tc.m.Info())
		if err != nil {
			t.Fatal(err)
		}
		for name, arity := range tc.arity {
			ts, ok := inst.Rels[name]
			if !ok || ts.Arity() != arity {
				t.Errorf("%s: arity %d (bound %v), want %d", name, ts.Arity(), ok, arity)
			}
		}
		if _, ok := inst.Rels[tc.absent]; ok && tc.absent != "" {
			t.Errorf("relation %s of the other model leaked into this one", tc.absent)
		}
		if inst.Rels["Node"].Len() != 2 || !inst.Rels["next"].IsEmpty() {
			t.Errorf("instance = %s", inst)
		}
		if r := tc.m.Run(test); !r.Passed {
			t.Errorf("run: %v", r.Err)
		}
	}
}

func TestEmptyValuationRelationKeepsModelArity(t *testing.T) {
	test := &Test{
		Name: "empty_next",
		Valuation: map[string][][]string{
			"Node":  {{"N0"}},
			"next":  {},
			"extra": {},
		},
		Formula: "no next",
		Expect:  true,
	}
	for _, tc := range []struct {
		src   string
		arity int
	}{{modelNext, 2}, {modelLink, 3}, {modelNext, 2}} {
		inst, err := test.Instance(Prepare(mustParse(t, tc.src)).Info())
		if err != nil {
			t.Fatal(err)
		}
		if got := inst.Rels["next"]; !got.IsEmpty() || got.Arity() != tc.arity {
			t.Errorf("next = %d tuples of arity %d, want none of arity %d", got.Len(), got.Arity(), tc.arity)
		}
		if got := inst.Rels["extra"]; !got.IsEmpty() || got.Arity() != 1 {
			t.Errorf("relation outside the model: arity %d, want 1", got.Arity())
		}
	}
}

func TestRepeatedInstancesAreEqualAndIndependent(t *testing.T) {
	test := &Test{
		Name: "cycle",
		Valuation: map[string][][]string{
			"Node": {{"N1"}, {"N0"}},
			"next": {{"N0", "N1"}, {"N1", "N0"}},
		},
		Formula: "all n: Node | some n.next",
		Expect:  true,
	}
	info := Prepare(mustParse(t, modelNext)).Info()
	first, err := test.Instance(info)
	if err != nil {
		t.Fatal(err)
	}
	second, err := test.Instance(info)
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() || first.Universe.Size() != 2 {
		t.Fatalf("instances differ:\n%s\n%s", first, second)
	}
	for name, ts := range first.Rels {
		if !ts.Equal(second.Rels[name]) || ts.Arity() != second.Rels[name].Arity() {
			t.Errorf("%s differs between runs", name)
		}
	}
	delete(first.Rels, "next")
	if _, ok := second.Rels["next"]; !ok {
		t.Error("instances share their relation map")
	}
	if third, _ := test.Instance(info); third.String() != second.String() {
		t.Error("changing one instance changed the memo")
	}
}

// TestConcurrentRunAllSharesOneSuite runs one suite of fresh tests from
// several goroutines at once, so their first runs race to resolve each
// test's valuation (run it with -race). Every run must match a sequential
// run of an identical suite.
func TestConcurrentRunAllSharesOneSuite(t *testing.T) {
	mod := mustParse(t, modelNext)
	newSuite := func() *Suite {
		s := &Suite{}
		for i := 0; i < 8; i++ {
			next := [][]string{{"N0", "N1"}}
			if i%2 == 0 {
				next = append(next, []string{"N1", "N0"})
			}
			s.Add(&Test{
				Name:      fmt.Sprintf("t%d", i),
				Valuation: map[string][][]string{"Node": {{"N0"}, {"N1"}}, "next": next},
				Formula:   "all n: Node | some n.next",
				Expect:    true,
			})
		}
		return s
	}
	want, wantPassed := newSuite().RunAll(mod)
	shared := newSuite()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, passed := Prepare(mod).RunAll(shared)
				if passed != wantPassed {
					errs <- fmt.Sprintf("passed %d, want %d", passed, wantPassed)
					return
				}
				for i := range got {
					if got[i].Passed != want[i].Passed || errText(got[i].Err) != errText(want[i].Err) {
						errs <- fmt.Sprintf("test %d: %v %v, want %v %v", i, got[i].Passed, got[i].Err, want[i].Passed, want[i].Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if wantPassed != 4 {
		t.Errorf("sequential run passed %d of 8, want 4", wantPassed)
	}
}
