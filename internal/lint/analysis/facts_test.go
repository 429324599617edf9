package analysis

import "testing"

type testFact struct{}

func (*testFact) AFact() {}

// TestFactSetFreeze pins that a frozen set rejects writes — imported
// dependency sets are shared across concurrent package analyses and
// must be immutable.
func TestFactSetFreeze(t *testing.T) {
	s := NewFactSet("p")
	s.Put("F", &testFact{})
	s.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("Put on frozen set did not panic")
		}
	}()
	s.Put("G", &testFact{})
}
