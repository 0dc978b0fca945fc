package stream

import (
	"bytes"
	"context"
	"io"
	"time"

	"repro/parparawerr"
)

// RetryPolicy makes a Source resilient to transient reader failures:
// a failed Read is retried in place — the source's byte accounting is
// exact, so the retry resumes at the exact offset the failed attempt
// targeted, with no loss and no duplication — up to MaxAttempts times
// with capped exponential backoff. Errors the classifier rejects (and
// exhausted retries) surface as a typed parparawerr.InputError carrying
// the offset.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts for one failing read
	// position (1 failed read + MaxAttempts-1 retries). Values <= 1
	// disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt. Zero means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 250ms.
	MaxDelay time.Duration
	// Retryable classifies errors worth retrying. Nil retries every
	// error (still bounded by MaxAttempts). io.EOF is never retried.
	Retryable func(error) bool
	// Sleep replaces the backoff wait (tests).
	Sleep func(time.Duration)
}

func (p RetryPolicy) retryable(err error) bool {
	if p.Retryable == nil {
		return true
	}
	return p.Retryable(err)
}

func (p RetryPolicy) backoff(failed int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	for i := 1; i < failed && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Source feeds the streaming pipeline with raw input, one fixed-size
// chunk at a time. It adapts an io.Reader to the host side of Figure 7:
// the pipeline never sees (or buffers) more of the input than the
// chunks currently in flight, which is what lets the system ingest
// inputs that do not fit in memory. A Source is used by a single
// pipeline goroutine; it is not safe for concurrent Fill calls.
//
// Byte accounting is exact: bytes delivered by a Read that also
// returned an error are kept (the error is surfaced on the next read
// attempt, per the io.Reader contract), so a retried read resumes at
// precisely the failed offset and a permanent failure reports exactly
// how many bytes were consumed before it.
type Source struct {
	r      io.Reader
	peek   [1]byte
	peeked bool

	retry RetryPolicy
	// ctx cuts a retry backoff short: a canceled run fails at once.
	ctx context.Context
	// pending is an error returned by a Read alongside data: the data
	// is consumed first and the error re-surfaces on the next read.
	pending error
	// failed, when non-nil, latches a permanent failure: every later
	// read returns it (a broken source does not heal mid-stream).
	failed error

	off          int64 // bytes successfully read from r
	retries      int64 // failed read attempts that were retried
	retriedBytes int64 // bytes recovered by reads after >= 1 retry
}

// NewSource wraps an io.Reader.
func NewSource(r io.Reader) *Source { return &Source{r: r, ctx: context.Background()} }

// BytesSource adapts an in-memory input. It exists for callers (and
// tests) that already hold the whole input; the pipeline still consumes
// it chunk by chunk, exactly as it would a file.
func BytesSource(input []byte) *Source { return NewSource(bytes.NewReader(input)) }

// SetRetry installs the source's retry policy. Call before the first
// Fill.
func (s *Source) SetRetry(p RetryPolicy) { s.retry = p }

// Consumed returns the number of bytes successfully read from the
// underlying reader so far.
func (s *Source) Consumed() int64 { return s.off }

// RetryStats returns the retried-attempt count and the bytes recovered
// by reads that succeeded after at least one retry.
func (s *Source) RetryStats() (retries, retriedBytes int64) { return s.retries, s.retriedBytes }

// read is the retrying low-level read: it calls the underlying reader,
// keeps exact byte accounting, defers errors that accompany data, and
// retries failed attempts per the policy. A non-retryable or exhausted
// failure is returned as a typed *parparawerr.InputError and latched.
func (s *Source) read(p []byte) (int, error) {
	if s.failed != nil {
		return 0, s.failed
	}
	failures := 0
	for {
		var n int
		var err error
		if s.pending != nil {
			err, s.pending = s.pending, nil
		} else {
			n, err = s.r.Read(p)
			s.off += int64(n)
			if failures > 0 && n > 0 {
				s.retriedBytes += int64(n)
			}
		}
		if n > 0 {
			if err != nil && err != io.EOF {
				// Consume the data now; the error re-surfaces on the
				// next read, where the retry policy gets to see it.
				s.pending = err
				err = nil
			}
			return n, err
		}
		if err == nil {
			continue // Read is allowed to return (0, nil); try again
		}
		if err == io.EOF {
			return 0, io.EOF
		}
		failures++
		if failures >= s.retry.MaxAttempts || !s.retry.retryable(err) {
			s.failed = &parparawerr.InputError{
				Offset:    s.off,
				Partition: parparawerr.NoPartition,
				Attempts:  failures,
				Err:       err,
			}
			return 0, s.failed
		}
		s.retries++
		if err := s.wait(s.retry.backoff(failures)); err != nil {
			s.failed = err
			return 0, err
		}
	}
}

// wait sleeps out one retry backoff, or returns a typed cancellation as
// soon as the run's context ends.
func (s *Source) wait(d time.Duration) error {
	if s.retry.Sleep != nil {
		s.retry.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-s.ctx.Done():
		return parparawerr.Canceled(parparawerr.NoPartition, s.ctx.Err())
	}
}

// minChunkAlloc is the initial chunk-buffer capacity: buffers grow
// geometrically from here toward the chunk size, so a source smaller
// than the partition size never forces a partition-sized allocation.
const minChunkAlloc = 64 << 10

// Fill reads from the source until size bytes are buffered or the input
// ends. dst is the recycled backing buffer from a previous Fill (nil on
// first use); the filled bytes are returned as a slice of it, or of a
// geometrically grown replacement the caller should retain for reuse.
// The second result reports whether the source is now exhausted; it is
// exact: when the chunk fills completely, Fill peeks one byte ahead
// (stashing it for the next call) so the pipeline knows immediately
// whether the chunk it just read is the input's last — the final
// partition must be parsed in trailing-record mode rather than
// carry-over mode, and that decision cannot wait for a later read.
func (s *Source) Fill(dst []byte, size int) (data []byte, last bool, err error) {
	if cap(dst) > size {
		dst = dst[:size]
	} else {
		dst = dst[:cap(dst)]
	}
	n := 0
	for {
		if n == len(dst) {
			if n >= size {
				break
			}
			grow := 2 * n
			if grow < minChunkAlloc {
				grow = minChunkAlloc
			}
			if grow > size {
				grow = size
			}
			next := make([]byte, grow)
			copy(next, dst[:n])
			dst = next
		}
		if s.peeked {
			dst[n] = s.peek[0]
			s.peeked = false
			n++
			continue
		}
		m, err := s.read(dst[n:])
		n += m
		if err == io.EOF {
			return dst[:n], true, nil
		}
		if err != nil {
			return dst[:n], false, err
		}
	}
	for {
		m, err := s.read(s.peek[:])
		if m > 0 {
			s.peeked = true
			return dst[:n], false, nil
		}
		if err == io.EOF {
			return dst[:n], true, nil
		}
		if err != nil {
			return dst[:n], false, err
		}
	}
}
