package apiclient

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// fuzzRequest has the shape of the work protocol's requests: a version,
// scalar fields and a nested list of results.
type fuzzRequest struct {
	ProtoVersion int    `json:"proto_version"`
	Worker       string `json:"worker"`
	Epoch        string `json:"epoch,omitempty"`
	MaxPoints    int    `json:"max_points,omitempty"`
	Results      []struct {
		Index  int                `json:"index"`
		Values map[string]float64 `json:"values"`
		Error  string             `json:"error,omitempty"`
	} `json:"results,omitempty"`
}

// FuzzDecodeRequest feeds arbitrary bodies to the strict v1 request
// decode. No body may panic it; every rejection must be a *DecodeError
// with code invalid_request or bad_field; and a body it accepts holds one
// JSON value. The seed corpus in testdata/fuzz/FuzzDecodeRequest holds
// the bad bodies every work-protocol route is tested with.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var v fuzzRequest
		err := DecodeRequest(bytes.NewReader(body), &v)
		if err == nil {
			if !json.Valid(body) {
				t.Fatalf("accepted %q, which is not one JSON value", body)
			}
			return
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%q: %T %v, want a *DecodeError", body, err, err)
		}
		if de.Code != CodeInvalidRequest && de.Code != CodeBadField {
			t.Fatalf("%q: code %q", body, de.Code)
		}
	})
}
