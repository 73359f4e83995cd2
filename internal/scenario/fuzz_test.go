package scenario

import (
	"errors"
	"testing"
)

// FuzzParse holds Parse to its contract over arbitrary input: it never
// panics, every error it returns wraps ErrBadScenario, and a document it
// accepts is rejected once anything but whitespace follows it. The seed
// corpus in testdata/fuzz/FuzzParse replays under plain go test; make
// fuzz-smoke explores beyond it.
func FuzzParse(f *testing.F) {
	f.Add([]byte(validJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !errors.Is(err, ErrBadScenario) {
				t.Fatalf("%q: error %v does not wrap ErrBadScenario", data, err)
			}
			return
		}
		if s == nil {
			t.Fatalf("%q: nil scenario without an error", data)
		}
		for _, tail := range []string{"}", "]", "x", ",", "0", `{"a":`, `{}`} {
			if _, err := Parse(append(data[:len(data):len(data)], tail...)); !errors.Is(err, ErrBadScenario) {
				t.Fatalf("%q + %q: err = %v, want trailing data rejected", data, tail, err)
			}
		}
	})
}
