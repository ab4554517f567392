package canonjson

import (
	"encoding/json"
	"testing"
)

// TestCursorReadsOnlyWhatUnmarshalReadsTheSame: every value a Cursor
// accepts, json.Unmarshal reads as the same value; everything else clears
// the cursor.
func TestCursorReadsOnlyWhatUnmarshalReadsTheSame(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`0`, true}, {`-1`, true}, {`9223372036854775807`, true}, {`-9223372036854775808`, true},
		{`-0`, false}, {`01`, false}, {`+1`, false}, {`1.0`, false}, {`1e2`, false}, {`9223372036854775808`, false}, {`-`, false}, {``, false},
	} {
		c := NewCursor(`{"n":` + tc.in + `}`)
		n := c.Int(`{"n":`, 64)
		c.Expect("}")
		var want struct{ N int64 }
		err := json.Unmarshal([]byte(`{"n":`+tc.in+`}`), &want)
		if c.Done() != tc.ok || tc.ok && (err != nil || n != want.N) {
			t.Errorf("Int(%q) = %d, done %v; want done %v and json.Unmarshal's %d, %v", tc.in, n, c.Done(), tc.ok, want.N, err)
		}
	}
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`""`, true}, {"\"job-1 ~\x7f caf\xc3\xa9\"", true},
		{`"a\"b"`, false}, {`"a<b"`, false}, {"\"bad \xff\"", false}, {"\"\u2028\"", false}, {"\"tab\there\"", false},
		{`"open`, false}, {`null`, false},
	} {
		c := NewCursor(tc.in)
		s := c.Str("")
		var want string
		err := json.Unmarshal([]byte(tc.in), &want)
		if c.Done() != tc.ok || tc.ok && (err != nil || s != want) {
			t.Errorf("Str(%q) = %q, done %v; want done %v and json.Unmarshal's %q, %v", tc.in, s, c.Done(), tc.ok, want, err)
		}
	}
}
