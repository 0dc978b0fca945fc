// Package parparawerr is the error taxonomy of the parparaw streaming
// pipeline: every failure class a long-running ingestion service must
// distinguish is a typed error here, matchable with errors.Is against a
// package sentinel and inspectable with errors.As for the failure's
// context (byte offset, partition index, recovered panic value).
//
// The classes:
//
//	ErrInput      the io.Reader feeding the stream failed (after any
//	              configured retries); InputError carries the exact byte
//	              offset the stream had consumed and the attempt count.
//	ErrMalformed  the input violated the format (DFA validation failure
//	              under Options.Validate); MalformedError carries the
//	              partition and the DFA's end state.
//	ErrBudget     a partition could not be admitted under a strict
//	              device-memory budget; BudgetError carries the estimate
//	              and the budget.
//	ErrCanceled   the run's context was canceled or its deadline passed;
//	              CanceledError unwraps to the context error, so
//	              errors.Is(err, context.Canceled) also matches.
//	ErrInternal   a contained panic in a pipeline worker (ring partition
//	              parse, convert-pool column, device kernel) or a
//	              pipeline invariant violation (a published boundary
//	              that the finished parse contradicts); InternalError
//	              carries the partition, the recovered value, and the
//	              stack.
//	ErrConfig     the options were rejected before any input was read
//	              (a negative or duplicate selected column, a predicate
//	              outside the schema); ConfigError carries the reason.
//
// The package is deliberately tiny and dependency-free so that both the
// public parparaw package and the internal pipeline layers can share one
// vocabulary without an import cycle.
package parparawerr

import (
	"errors"
	"fmt"
)

// Sentinels for errors.Is. Every typed error in this package matches
// exactly one of them.
var (
	ErrInput     = errors.New("parparaw: input error")
	ErrMalformed = errors.New("parparaw: malformed input")
	ErrBudget    = errors.New("parparaw: device budget exhausted")
	ErrCanceled  = errors.New("parparaw: canceled")
	ErrInternal  = errors.New("parparaw: internal failure")
	ErrConfig    = errors.New("parparaw: invalid configuration")
)

// NoPartition marks errors raised outside any particular partition
// (single-shot parses, failures before the first partition assembles).
const NoPartition = -1

// InputError reports a failure of the io.Reader feeding the stream,
// after any configured retries were exhausted. Offset is the number of
// bytes the stream had successfully consumed from the reader when the
// failure became permanent — the exact resume point for a caller that
// can reopen the source.
type InputError struct {
	// Offset is the count of input bytes consumed before the failure.
	Offset int64
	// Partition is the index of the partition being assembled, or
	// NoPartition.
	Partition int
	// Attempts is the number of read attempts made (1 = no retries).
	Attempts int
	// Err is the reader's final error.
	Err error
}

func (e *InputError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("input error at byte %d after %d attempts: %v", e.Offset, e.Attempts, e.Err)
	}
	return fmt.Sprintf("input error at byte %d: %v", e.Offset, e.Err)
}

func (e *InputError) Unwrap() error { return e.Err }

func (e *InputError) Is(target error) bool { return target == ErrInput }

// MalformedError reports a format violation detected by the parsing DFA
// under Options.Validate.
type MalformedError struct {
	// Partition is the partition whose parse failed, or NoPartition.
	Partition int
	// State names the DFA state the input ended in.
	State string
	// Detail is the underlying validation message.
	Detail string
}

func (e *MalformedError) Error() string {
	return fmt.Sprintf("malformed input: %s", e.Detail)
}

func (e *MalformedError) Is(target error) bool { return target == ErrMalformed }

// BudgetError reports that a partition could not be admitted under a
// strict device-memory budget: its estimated footprint alone exceeds the
// budget, so waiting for in-flight partitions to retire cannot help.
type BudgetError struct {
	// Partition is the partition denied admission.
	Partition int
	// Estimate is the partition's estimated device footprint in bytes.
	Estimate int64
	// Budget is the configured limit in bytes.
	Budget int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("partition %d needs an estimated %d device bytes, budget is %d", e.Partition, e.Estimate, e.Budget)
}

func (e *BudgetError) Is(target error) bool { return target == ErrBudget }

// CanceledError reports that the run's context was canceled or its
// deadline passed. It unwraps to the context error, so callers can match
// context.Canceled / context.DeadlineExceeded directly as well as
// ErrCanceled.
type CanceledError struct {
	// Partition is the partition in flight when the cancellation was
	// observed, or NoPartition.
	Partition int
	// Err is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

func (e *CanceledError) Error() string { return fmt.Sprintf("canceled: %v", e.Err) }

func (e *CanceledError) Unwrap() error { return e.Err }

func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// InternalError reports a contained panic in a pipeline worker or a
// violated pipeline invariant. The stream that returns one failed
// cleanly: goroutines were joined, arenas recycled, and no partial
// output was emitted past the failure.
type InternalError struct {
	// Partition is the partition whose worker failed, or NoPartition.
	Partition int
	// Stage names where the failure was contained ("ring", "convert",
	// "kernel", "boundary").
	Stage string
	// Value is the recovered panic value (nil for invariant violations).
	Value any
	// Stack is the goroutine stack captured at the recovery point (nil
	// for invariant violations).
	Stack []byte
}

func (e *InternalError) Error() string {
	if e.Value != nil {
		return fmt.Sprintf("internal failure in %s stage: panic: %v", e.Stage, e.Value)
	}
	return fmt.Sprintf("internal failure in %s stage", e.Stage)
}

func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// ConfigError reports options that were rejected when an engine was
// built, before any input was read. Its message is the reason itself.
type ConfigError struct {
	// Err is the validation failure.
	Err error
}

func (e *ConfigError) Error() string { return e.Err.Error() }

func (e *ConfigError) Unwrap() error { return e.Err }

func (e *ConfigError) Is(target error) bool { return target == ErrConfig }

// Canceled wraps a context error for the given partition.
func Canceled(partition int, ctxErr error) *CanceledError {
	return &CanceledError{Partition: partition, Err: ctxErr}
}
