package serve

// The wire protocol. Queries stream newline-delimited JSON
// (application/x-ndjson): one object per result node, then exactly one
// terminal object that either confirms completion with the delivered
// count or carries the query's typed error. The terminal line exists
// because HTTP commits the status code before the first result — a
// budget trip halfway through a stream can only be reported in-band.
//
//	{"key":"a.b.c","kind":"element","name":"address","value":""}
//	...
//	{"done":true,"count":412}
//
// or, after a mid-stream governance trip:
//
//	{"error":"vamana: query deadline exceeded","code":"deadline-exceeded"}
//
// Errors before the first result use plain HTTP statuses with a JSON
// body; admission rejections additionally set Retry-After. Encoding is
// deterministic (fixed field order, stdlib JSON string escaping), which
// is what lets the server test battery assert byte-identical streams
// against in-process execution.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"vamana"
)

// ErrorCode classifies a query failure on the wire; clients switch on it
// instead of parsing error strings.
type ErrorCode string

// Wire error codes.
const (
	CodeCanceled         ErrorCode = "canceled"
	CodeDeadlineExceeded ErrorCode = "deadline-exceeded"
	CodeBudgetExceeded   ErrorCode = "budget-exceeded"
	CodeNoSuchDocument   ErrorCode = "no-such-document"
	CodeSyntax           ErrorCode = "syntax"
	CodeOverloaded       ErrorCode = "overloaded"
	CodeDraining         ErrorCode = "draining"
	CodeInternal         ErrorCode = "internal"
)

// errorCode maps an engine error to its wire code.
func errorCode(err error) ErrorCode {
	var se *vamana.SyntaxError
	var oe *OverloadError
	switch {
	case errors.Is(err, vamana.ErrCanceled) || errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, vamana.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, vamana.ErrBudgetExceeded):
		return CodeBudgetExceeded
	case errors.Is(err, vamana.ErrNoSuchDocument):
		return CodeNoSuchDocument
	case errors.As(err, &se):
		return CodeSyntax
	case errors.As(err, &oe):
		if oe.Reason == RejectDraining {
			return CodeDraining
		}
		return CodeOverloaded
	default:
		return CodeInternal
	}
}

// httpStatus maps an error that occurred before any result streamed to
// its HTTP status.
func httpStatus(err error) int {
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		if oe.Reason == RejectDraining {
			return http.StatusServiceUnavailable
		}
		return http.StatusTooManyRequests
	case errors.Is(err, vamana.ErrNoSuchDocument):
		return http.StatusNotFound
	case errorCode(err) == CodeSyntax:
		return http.StatusBadRequest
	case errors.Is(err, vamana.ErrBudgetExceeded),
		errors.Is(err, vamana.ErrDeadlineExceeded),
		errors.Is(err, context.DeadlineExceeded):
		// Tripped before the first result (e.g. a pages-read budget hit
		// during the first batch): the client's request was too hungry,
		// not the server's fault.
		return http.StatusUnprocessableEntity
	case errors.Is(err, vamana.ErrCanceled), errors.Is(err, context.Canceled):
		// Client went away; 499 in the nginx tradition.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// wireError is the JSON error envelope, used both as a pre-stream body
// and as the in-band terminal line.
type wireError struct {
	Error        string    `json:"error"`
	Code         ErrorCode `json:"code"`
	Reason       string    `json:"reason,omitempty"`
	Tenant       string    `json:"tenant,omitempty"`
	RetryAfterMS int64     `json:"retry_after_ms,omitempty"`
}

// writeError writes a pre-stream failure: HTTP status, Retry-After for
// overload rejections, JSON envelope.
func writeError(w http.ResponseWriter, err error) {
	env := wireError{Error: err.Error(), Code: errorCode(err)}
	var oe *OverloadError
	if errors.As(err, &oe) {
		env.Reason = string(oe.Reason)
		env.Tenant = oe.Tenant
		env.RetryAfterMS = oe.RetryAfter.Milliseconds()
		// Retry-After is whole seconds; round up so "after 250ms" never
		// becomes "now".
		secs := int64(math.Ceil(oe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatus(err))
	enc := json.NewEncoder(w)
	_ = enc.Encode(env)
}

// appendJSONString appends s as a JSON string literal: quote, backslash
// and control characters escaped, everything else passed through. This
// replaces json.Marshal on the per-node hot path — no HTML escaping, no
// allocation, one pass.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' || c == '\\' || c < 0x20 {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				const hex = "0123456789abcdef"
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			start = i + 1
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendNode appends one result node as a single NDJSON line. Fields
// are emitted in fixed order with deterministic escaping, so identical
// result streams produce identical bytes.
func appendNode(dst []byte, n vamana.Node) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendJSONString(dst, n.Key)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, n.Kind.String())
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, n.Name)
	dst = append(dst, `,"value":`...)
	dst = appendJSONString(dst, n.Value)
	return append(dst, '}', '\n')
}

// appendDone appends the success terminal line.
func appendDone(dst []byte, count uint64) []byte {
	dst = append(dst, `{"done":true,"count":`...)
	dst = strconv.AppendUint(dst, count, 10)
	return append(dst, '}', '\n')
}

// encodeStreamError writes the in-band terminal error line.
func encodeStreamError(w io.Writer, qerr error) error {
	msg, _ := json.Marshal(qerr.Error())
	_, err := fmt.Fprintf(w, `{"error":%s,"code":%q}`+"\n", msg, errorCode(qerr))
	return err
}
