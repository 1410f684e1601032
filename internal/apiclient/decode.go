package apiclient

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Codes a server answers a rejected request body with.
const (
	CodeInvalidRequest = "invalid_request" // malformed JSON, or data after the value
	CodeBadField       = "bad_field"       // a field the request type does not have
)

// DecodeError is a request body DecodeRequest rejected. Code is the
// envelope code to answer it with, under HTTP 400.
type DecodeError struct {
	Code string
	Err  error
}

func (e *DecodeError) Error() string { return e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// DecodeRequest is the one decode rule for the JSON request bodies the
// repo's servers accept: the ehdoed v1 surface, the cluster work protocol
// (Coordinator.Handler(), which ehdoed mounts) and the peer-cache
// protocol. The body must hold exactly one JSON value, decoded
// into v with unknown fields rejected, so a typo or a newer client's field
// fails loudly instead of silently defaulting. Any rejection is a
// *DecodeError: CodeBadField for an unknown field, CodeInvalidRequest for
// malformed JSON, a read error or trailing data.
func DecodeRequest(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if strings.HasPrefix(err.Error(), "json: unknown field ") {
			return &DecodeError{Code: CodeBadField, Err: err}
		}
		return &DecodeError{Code: CodeInvalidRequest, Err: fmt.Errorf("malformed JSON body: %w", err)}
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return &DecodeError{Code: CodeInvalidRequest, Err: fmt.Errorf("malformed JSON body: trailing data")}
	}
	return nil
}
