package trace

import (
	"context"
	"sync"
	"time"
)

// TokenBucket is the admission primitive beside Stage: rate tokens per
// second with a burst ceiling, Wait for blocking admission and Allow
// for a non-blocking drop path. The fleet sweep paces probes with one;
// ingest gives every tenant its own event quota. rate <= 0 means
// unlimited.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a full bucket of burst tokens (at least one)
// refilled at rate tokens per second.
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	if burst <= 0 {
		burst = 1
	}
	return &TokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// Allow takes a token if one is available, without blocking.
func (tb *TokenBucket) Allow() bool {
	if tb.rate <= 0 {
		return true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked()
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// Wait blocks until a token is available or ctx is cancelled.
func (tb *TokenBucket) Wait(ctx context.Context) error {
	if tb.rate <= 0 {
		return ctx.Err()
	}
	for {
		tb.mu.Lock()
		tb.refillLocked()
		if tb.tokens >= 1 {
			tb.tokens--
			tb.mu.Unlock()
			return nil
		}
		wait := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
		tb.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

func (tb *TokenBucket) refillLocked() {
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
}
