package apiclient

import (
	"errors"
	"strings"
	"testing"
)

func TestDecodeRequest(t *testing.T) {
	type req struct {
		A int    `json:"a"`
		B string `json:"b,omitempty"`
	}
	cases := []struct {
		body, code string
	}{
		{`{"a":1,"b":"x"}`, ""},
		{` {"a":1}` + "\n", ""},
		{`{"a":1,"c":2}`, CodeBadField},
		{`{"a":1}{"a":2}`, CodeInvalidRequest},
		{`{"a":1} x`, CodeInvalidRequest},
		{`{"a":`, CodeInvalidRequest},
		{`{"a":"one"}`, CodeInvalidRequest},
		{``, CodeInvalidRequest},
	}
	for _, c := range cases {
		var v req
		err := DecodeRequest(strings.NewReader(c.body), &v)
		var de *DecodeError
		switch {
		case c.code == "" && err != nil:
			t.Errorf("%q: %v, want success", c.body, err)
		case c.code != "" && (!errors.As(err, &de) || de.Code != c.code):
			t.Errorf("%q: %v, want a DecodeError with code %q", c.body, err, c.code)
		}
	}
}
