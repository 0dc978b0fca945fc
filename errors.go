package parparaw

import (
	"errors"
	"net/http"

	"repro/parparawerr"
)

// ErrUnstreamable: the engine's Format cannot be streamed — a record-
// delimiter transition of its DFA does not return to the start state,
// so no partition-at-a-time parse is correct. Only FormatBuilder grammars can trip this; every built-in
// dialect is streamable (Format.Streamable). Parse the input whole
// instead.
var ErrUnstreamable = errors.New("parparaw: format is not streamable: a record-delimiter transition does not return to the start state")

// The error taxonomy: every failure a parse or streaming run can return
// matches exactly one of these sentinels under errors.Is, and carries a
// typed value (parparawerr.InputError, MalformedError, BudgetError,
// CanceledError, InternalError) extractable with errors.As for the
// failure's context — byte offset, partition index, attempt count,
// recovered panic value. The sentinels alias package parparawerr, where
// the typed errors live; match either spelling.
//
//	res, err := engine.StreamReaderContext(ctx, r, cfg)
//	switch {
//	case errors.Is(err, parparaw.ErrInput):
//		var ie *parparawerr.InputError
//		errors.As(err, &ie) // ie.Offset is the exact resume point
//	case errors.Is(err, parparaw.ErrCanceled):
//		// res still holds the partitions emitted before the cancel
//	}
//
// CanceledError additionally unwraps to the context error, so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded also
// match.
var (
	// ErrInput: the io.Reader feeding the parse failed, after any
	// configured retries.
	ErrInput = parparawerr.ErrInput
	// ErrMalformed: the input violated the format (DFA validation
	// failure under Options.Validate).
	ErrMalformed = parparawerr.ErrMalformed
	// ErrBudget: a partition was denied admission under
	// StreamConfig.StrictBudget.
	ErrBudget = parparawerr.ErrBudget
	// ErrCanceled: the run's context was canceled or its deadline
	// passed.
	ErrCanceled = parparawerr.ErrCanceled
	// ErrInternal: a contained panic in a pipeline worker or a violated
	// pipeline invariant; the run failed cleanly (goroutines joined,
	// arenas recycled).
	ErrInternal = parparawerr.ErrInternal
	// ErrConfig: NewEngine rejected the options (parparawerr.ConfigError)
	// before any input was read.
	ErrConfig = parparawerr.ErrConfig
)

// StatusClientClosedRequest is the non-standard HTTP status the
// ingestion daemon reports for runs that ended because the client went
// away (nginx's 499 convention): no standard code distinguishes "the
// caller canceled" from a client or server fault, and a load balancer
// alerting on 5xx must not page for it.
const StatusClientClosedRequest = 499

// HTTPStatus maps an error from the parse/streaming API onto the HTTP
// status the ingestion daemon answers with — the serving-layer face of
// the error taxonomy. The mapping follows fault attribution: the
// client's input (ErrInput: its upload failed or lied about its size;
// ErrMalformed: the bytes violate the format under Validate;
// ErrUnstreamable; ErrConfig: its options) is 400, resource exhaustion
// (ErrBudget) is 429 so well-behaved clients back off and retry,
// cancellation is the 499-style StatusClientClosedRequest, and
// everything else — contained panics, violated pipeline invariants,
// unclassified errors — is a 500 that should page. nil maps to 200.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrBudget):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, ErrInput), errors.Is(err, ErrMalformed), errors.Is(err, ErrUnstreamable), errors.Is(err, ErrConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// ErrorKind names the taxonomy class of err ("input", "malformed",
// "budget", "canceled", "internal", "unstreamable", "config", or "error" for
// unclassified errors; "" for nil) — the stable string the daemon's
// JSON error bodies and metrics label errors with.
func ErrorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBudget):
		return "budget"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrInput):
		return "input"
	case errors.Is(err, ErrUnstreamable):
		return "unstreamable"
	case errors.Is(err, ErrInternal):
		return "internal"
	case errors.Is(err, ErrConfig):
		return "config"
	default:
		return "error"
	}
}
