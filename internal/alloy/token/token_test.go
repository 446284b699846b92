package token

import (
	"fmt"
	"testing"
)

// TestKeywordsRoundTrip checks that every keyword kind is found under its
// own spelling and that Keywords holds nothing else.
func TestKeywordsRoundTrip(t *testing.T) {
	n := 0
	for k := KwAbstract; k <= KwExpect; k++ {
		if got, ok := Keywords[k.String()]; !ok || got != k {
			t.Errorf("Keywords[%q] = %v, %v; want %v", k.String(), got, ok, int(k))
		}
		n++
	}
	if len(Keywords) != n {
		t.Errorf("len(Keywords) = %d, want %d", len(Keywords), n)
	}
	for _, k := range []Kind{Ident, Number, LBrace, Slash} {
		if _, ok := Keywords[k.String()]; ok {
			t.Errorf("non-keyword %v is in Keywords", k)
		}
	}
	if got := Kind(0).String(); got != "Kind(0)" {
		t.Errorf("Kind(0) = %q", got)
	}
	if got, want := (Slash + 1).String(), fmt.Sprintf("Kind(%d)", int(Slash+1)); got != want {
		t.Errorf("past the last kind = %q, want %q", got, want)
	}
}
